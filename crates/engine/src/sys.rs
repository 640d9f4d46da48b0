//! Advisory file locks (`flock`) for multi-process cache persistence.
//!
//! `flock(2)` is declared directly against the C library the Rust standard
//! library already links — no external crate. On non-Unix targets
//! [`FileLock`] becomes a no-op guard (single-process semantics, same as
//! before locking existed), so callers never need their own `cfg`.

use std::fs::File;
use std::io;
use std::path::Path;

#[cfg(unix)]
mod unix {
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    /// `flock(2)` operation: acquire an exclusive lock, blocking.
    const LOCK_EX: i32 = 2;
    /// `flock(2)` operation: release the lock.
    const LOCK_UN: i32 = 8;

    extern "C" {
        fn flock(fd: i32, operation: i32) -> i32;
    }

    /// Takes an exclusive advisory lock on `file`, blocking until granted.
    pub fn lock_exclusive(file: &File) -> io::Result<()> {
        // Retry on EINTR: a signal (e.g. the Ctrl-C this lock protects a
        // flush against) must not abort the lock acquisition.
        loop {
            if unsafe { flock(file.as_raw_fd(), LOCK_EX) } == 0 {
                return Ok(());
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// Releases an advisory lock held on `file`.
    pub fn unlock(file: &File) {
        // Dropping the fd would release the lock anyway; an explicit
        // unlock just does it eagerly. Errors are unactionable here.
        let _ = unsafe { flock(file.as_raw_fd(), LOCK_UN) };
    }
}

/// An exclusive advisory lock on a file, held for the guard's lifetime.
///
/// Built on `flock(2)`: cooperating processes (every `campaign` invocation
/// and server touching the same `cache.d`) serialize their
/// read-merge-rewrite cycles through it; unrelated readers are unaffected.
/// On non-Unix targets the guard is a no-op — acquisition always succeeds
/// and protects nothing, which matches the pre-locking single-process
/// behavior.
#[derive(Debug)]
pub struct FileLock {
    file: File,
}

impl FileLock {
    /// Creates (if needed) and exclusively locks the file at `path`,
    /// blocking until the lock is granted.
    ///
    /// # Errors
    ///
    /// Propagates file creation or `flock` failures.
    pub fn acquire<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = File::options()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)?;
        #[cfg(unix)]
        unix::lock_exclusive(&file)?;
        Ok(Self { file })
    }
}

impl Drop for FileLock {
    fn drop(&mut self) {
        #[cfg(unix)]
        unix::unlock(&self.file);
        #[cfg(not(unix))]
        let _ = &self.file;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_lock_excludes_across_threads() {
        let dir = std::env::temp_dir().join("codesign_sys_flock_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("guard.lock");
        // Two threads hammer a plain (non-atomic) counter file under the
        // lock; without mutual exclusion the read-modify-write cycle loses
        // updates with near certainty.
        let counter = dir.join("counter.txt");
        std::fs::write(&counter, "0").unwrap();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let (path, counter) = (path.clone(), counter.clone());
                scope.spawn(move || {
                    for _ in 0..200 {
                        let _guard = FileLock::acquire(&path).unwrap();
                        let n: u64 = std::fs::read_to_string(&counter)
                            .unwrap()
                            .trim()
                            .parse()
                            .unwrap();
                        std::fs::write(&counter, format!("{}", n + 1)).unwrap();
                    }
                });
            }
        });
        let n: u64 = std::fs::read_to_string(&counter)
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(n, 400, "every locked increment must land");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
