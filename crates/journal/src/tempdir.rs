//! A self-removing scratch directory for journals in tests, benches and
//! examples.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Numbers every [`TempDir`] this process creates, so two directories
/// with the same label never collide (parallel tests, repeated runs of
/// one workload).
static NEXT: AtomicU64 = AtomicU64::new(0);

/// A fresh directory under [`std::env::temp_dir`], named
/// `arbloops-<label>-<pid>-<n>`, removed with its contents on drop.
///
/// ```
/// let dir = arb_journal::TempDir::new("doc").unwrap();
/// let path = dir.path().to_path_buf();
/// assert!(path.is_dir());
/// drop(dir);
/// assert!(!path.exists());
/// ```
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates the directory. A leftover of the same name (a crashed
    /// earlier process that had the same pid) is removed first.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] when the directory cannot be created.
    pub fn new(label: &str) -> io::Result<Self> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("arbloops-{label}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_label_gives_distinct_directories() {
        let a = TempDir::new("same").unwrap();
        let b = TempDir::new("same").unwrap();
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir() && b.path().is_dir());
    }
}
