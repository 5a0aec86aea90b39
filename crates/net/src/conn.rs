//! Transport abstraction: one connection type over TCP or Unix-domain
//! sockets, so the session layer is transport-agnostic.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Where a daemon server listens (or a client connects).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerAddr {
    /// A TCP endpoint, e.g. `127.0.0.1:7411`. Port `0` binds an
    /// ephemeral port; the resolved address is reported back by
    /// [`DaemonServer::local_addr`](crate::DaemonServer::local_addr).
    Tcp(String),
    /// A Unix-domain socket path. A stale socket file left by a dead
    /// server is removed at bind time; a path with a *live* server
    /// behind it is refused with `AddrInUse` (the bind probe-connects
    /// first, so one server can never unlink another's socket).
    #[cfg(unix)]
    Uds(PathBuf),
}

impl fmt::Display for ServerAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerAddr::Tcp(a) => write!(f, "tcp://{a}"),
            #[cfg(unix)]
            ServerAddr::Uds(p) => write!(f, "uds://{}", p.display()),
        }
    }
}

/// One accepted or dialed connection, over either transport.
pub(crate) enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

impl Conn {
    pub(crate) fn dial(addr: &ServerAddr) -> io::Result<Conn> {
        match addr {
            ServerAddr::Tcp(a) => {
                let s = TcpStream::connect(a.as_str())?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            #[cfg(unix)]
            ServerAddr::Uds(p) => Ok(Conn::Uds(UnixStream::connect(p)?)),
        }
    }

    pub(crate) fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(t),
            #[cfg(unix)]
            Conn::Uds(s) => s.set_read_timeout(t),
        }
    }

    pub(crate) fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nonblocking(nb),
            #[cfg(unix)]
            Conn::Uds(s) => s.set_nonblocking(nb),
        }
    }

    /// The raw fd, for readiness registration. The reactor keeps the
    /// `Conn` alive strictly longer than the registration.
    pub(crate) fn raw_fd(&self) -> RawFd {
        match self {
            Conn::Tcp(s) => s.as_raw_fd(),
            #[cfg(unix)]
            Conn::Uds(s) => s.as_raw_fd(),
        }
    }

    /// Hard-closes both directions; any blocked read on a clone of this
    /// connection wakes with EOF or an error.
    pub(crate) fn kill(&self) {
        match self {
            Conn::Tcp(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
            #[cfg(unix)]
            Conn::Uds(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Uds(s) => s.flush(),
        }
    }
}

/// A bound, listening socket over either transport.
pub(crate) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds(UnixListener),
}

impl Listener {
    /// Binds `addr` and returns the listener plus the *resolved* address
    /// (TCP port `0` becomes the kernel-assigned port).
    pub(crate) fn bind(addr: &ServerAddr) -> io::Result<(Listener, ServerAddr)> {
        match addr {
            ServerAddr::Tcp(a) => {
                let l = TcpListener::bind(a.as_str())?;
                let resolved = ServerAddr::Tcp(l.local_addr()?.to_string());
                Ok((Listener::Tcp(l), resolved))
            }
            #[cfg(unix)]
            ServerAddr::Uds(p) => {
                // Never displace a live server: probe-connect first. Only
                // a refused connection proves the file is a stale corpse
                // left by a dead server; that one is unlinked and rebound.
                match UnixStream::connect(p) {
                    Ok(_) => {
                        return Err(io::Error::new(
                            io::ErrorKind::AddrInUse,
                            format!("a live server already listens on {}", p.display()),
                        ));
                    }
                    Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
                        std::fs::remove_file(p)?;
                    }
                    // No file at all: plain first bind. Any other probe
                    // failure falls through to bind, which reports it.
                    Err(_) => {}
                }
                let l = UnixListener::bind(p)?;
                Ok((Listener::Uds(l), ServerAddr::Uds(p.clone())))
            }
        }
    }

    pub(crate) fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            #[cfg(unix)]
            Listener::Uds(l) => l.set_nonblocking(nb),
        }
    }

    /// The raw fd of the listening socket, for readiness registration.
    pub(crate) fn raw_fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            #[cfg(unix)]
            Listener::Uds(l) => l.as_raw_fd(),
        }
    }

    pub(crate) fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Uds(l) => {
                let (s, _) = l.accept()?;
                Ok(Conn::Uds(s))
            }
        }
    }
}
