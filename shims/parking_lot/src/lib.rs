//! Offline stand-in for the `parking_lot` crate, backed by `std::sync`.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the small API slice it actually uses: `Mutex`,
//! `MutexGuard`, and `Condvar` with `parking_lot`'s non-poisoning
//! signatures (`lock()` returns a guard directly, `Condvar::wait` takes
//! `&mut MutexGuard`).

use std::sync;

/// A mutual-exclusion lock with `parking_lot`'s panic-free API.
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, ignoring poisoning (parking_lot has none).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        MutexGuard { inner: Some(guard) }
    }

    /// Acquires the mutex if it is free right now.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = match self.inner.try_lock() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard { inner: Some(guard) })
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// RAII guard returned by [`Mutex::lock`].
///
/// Internally holds an `Option` so [`Condvar::wait`] can move the std
/// guard out and back in through a `&mut` borrow.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

/// A condition variable matching `parking_lot`'s `wait(&mut guard)` shape.
#[derive(Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Blocks until notified, re-acquiring the lock before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard present");
        let inner = match self.inner.wait(inner) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        guard.inner = Some(inner);
    }

    pub fn notify_all(&self) -> usize {
        self.inner.notify_all();
        0
    }

    pub fn notify_one(&self) -> bool {
        self.inner.notify_one();
        false
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Condvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*p2;
            let mut started = lock.lock();
            while !*started {
                cv.wait(&mut started);
            }
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }
}
