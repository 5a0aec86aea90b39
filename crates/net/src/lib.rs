//! # ekbd-net — the daemon as a service
//!
//! Exposes a [`ThreadedDining`](ekbd_runtime::ThreadedDining) system over
//! the network: clients bind dining processes as *sessions* over TCP or
//! Unix-domain sockets and drive hungry → granted → released cycles,
//! while the paper's wait-freedom and exclusion guarantees keep holding
//! on the server side.
//!
//! The design maps network failures onto the crash-recovery fault model
//! the workspace already proves out:
//!
//! * a dead connection **crashes** the bound process — the daemon treats
//!   a vanished client exactly like a crashed philosopher, so its
//!   neighbors keep eating (wait-freedom under real packet loss);
//! * a reconnect **recovers** it — binding the process again, from any
//!   connection, rides the journal fast-resume path when stable storage
//!   has a valid snapshot, and degrades to the blank rejoin handshake
//!   otherwise, with the taken path reported honestly in the `Bound`
//!   frame. A process is named by its id and nothing else, and a `Bind`
//!   is the one way to admit it;
//! * overload is **shed, not queued**: admissions past the session cap
//!   are refused with a retry hint, slow readers are disconnected
//!   when their bounded send queue fills, and silent connections are
//!   culled by a strike-gated heartbeat (suspicion, then conviction —
//!   the ◇P₁ idiom applied to sockets).
//!
//! Everything is plain `std::net` + a small readiness reactor over the
//! vendored epoll shim; there is no async runtime and no
//! thread-per-connection. A handful of reactor threads own slabs of
//! nonblocking connections and work in passes — read, decode, serve,
//! then one write per connection; the packed scale kernel is stepped on
//! those threads directly, the threaded runtime's events reach them
//! through one pump thread, and blocking recovery waits run on
//! short-lived admission workers. One connection can multiplex many
//! dining processes (`Bind`/`Unbind` — the gateway shape, served by the
//! one client, [`MuxClient`]), and the server can front either the full threaded
//! runtime or the bit-packed scale-tier kernel
//! ([`server::BackendSpec`]). See `docs/NET.md` for the wire protocol
//! and operational guidance, and experiments E20/E21 for the measured
//! behavior under connection churn and reactor load.
//!
//! ## Quick tour
//!
//! ```
//! use ekbd_net::{ClientConfig, DaemonServer, MuxClient, MuxEvent, ServerAddr, ServerConfig};
//! use ekbd_graph::topology;
//! use std::time::Duration;
//!
//! let server = DaemonServer::start(
//!     topology::ring(5),
//!     &ServerAddr::Tcp("127.0.0.1:0".into()),
//!     ServerConfig::default(),
//! )
//! .unwrap();
//! let addr = server.local_addr().clone();
//!
//! // Process 0 on one connection, and process 2 behind it.
//! let mut client = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
//! client.bind(2).unwrap();
//! client.hungry(0).unwrap();
//! client.hungry(2).unwrap();
//! let mut released = 0;
//! while released < 2 {
//!     if let MuxEvent::Released { .. } = client.next_event(Duration::from_secs(5)).unwrap() {
//!         released += 1;
//!     }
//! }
//! client.bye();
//!
//! let run = server.shutdown();
//! assert_eq!(run.stats.fresh, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conn;
mod poll;

pub mod client;
pub mod loadgen;
pub mod server;
pub mod wire;

pub use client::{ClientConfig, ClientError, MuxClient, MuxEvent};
pub use conn::ServerAddr;
pub use loadgen::{kill_set, run_load, LoadPlan, LoadReport, Readmission};
pub use server::{BackendSpec, DaemonServer, ServerConfig, ServerRun, ServerStats};
pub use wire::{AdmitPath, Frame, WireError};
