//! Readiness polling for the reactor: a thin, safe facade over the
//! vendored [`rawpoll`] epoll shim, plus an eventfd-backed [`Waker`] for
//! cross-thread wakeups.
//!
//! All `unsafe` lives in `rawpoll` (three `extern "C"` declarations); this
//! module — and the whole crate — stays `#![forbid(unsafe_code)]`.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};

pub(crate) use rawpoll::{EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// One epoll instance, owned by exactly one reactor thread.
pub(crate) struct Poller {
    ep: rawpoll::Epoll,
}

impl Poller {
    pub(crate) fn new() -> io::Result<Poller> {
        Ok(Poller {
            ep: rawpoll::Epoll::new()?,
        })
    }

    /// Registers `fd` under `token` for the `events` readiness mask.
    pub(crate) fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ep.add(fd, events, token)
    }

    /// Re-arms `fd` with a new readiness mask (token unchanged by
    /// convention — the slot index is stable for a connection's life).
    pub(crate) fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ep.modify(fd, events, token)
    }

    /// Drops `fd` from the interest set. Harmless if already gone (the
    /// kernel also auto-deregisters on close).
    pub(crate) fn delete(&self, fd: RawFd) {
        let _ = self.ep.delete(fd);
    }

    /// Blocks up to `timeout_ms` and appends `(token, readiness)` pairs
    /// to `out`. Returns how many events arrived this call.
    pub(crate) fn wait(
        &mut self,
        out: &mut Vec<(u64, u32)>,
        max: usize,
        timeout_ms: i32,
    ) -> io::Result<usize> {
        self.ep.wait(out, max, timeout_ms)
    }
}

/// Cross-thread wakeup for a blocked [`Poller::wait`]: an eventfd
/// registered in the poller under a reserved token. Any thread may
/// [`wake`](Self::wake); the owning reactor [`drain`](Self::drain)s.
pub(crate) struct Waker {
    file: File,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        Ok(Waker {
            file: File::from(rawpoll::eventfd()?),
        })
    }

    pub(crate) fn raw_fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Nudges the poller. Errors are ignored: the fd is nonblocking, and
    /// an `EAGAIN` here means the counter is already saturated — the
    /// reactor is waking regardless.
    pub(crate) fn wake(&self) {
        let _ = (&self.file).write(&1u64.to_ne_bytes());
    }

    /// Resets the counter so the next [`wake`](Self::wake) re-triggers
    /// readiness. Called by the owning thread when its token fires. One
    /// read: an eventfd hands over its whole count and zeroes it, so a
    /// second could only return `EAGAIN`.
    pub(crate) fn drain(&self) {
        let _ = (&self.file).read(&mut [0u8; 8]);
    }
}
