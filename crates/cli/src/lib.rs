//! Command-line front end for the EKBD workspace.
//!
//! The `ekbd` binary runs dining scenarios, daemon-scheduled stabilization
//! runs, and threaded-runtime demos from the shell:
//!
//! ```sh
//! ekbd run --topology ring:8 --oracle adversarial:2000:40 \
//!          --crash 2:1500 --sessions 30 --timeline 3000
//! ekbd stabilize --protocol coloring --topology grid:3x3 \
//!          --crash 4:1000 --faults 10
//! ekbd threaded --n 5 --window-ms 400 --crash 0
//! ```
//!
//! Argument parsing is hand-rolled (the workspace's dependency policy
//! keeps external crates to the approved list; a CLI parser is not on
//! it), with the parsing logic in this library crate so it is unit
//! tested.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod spec;

pub use args::{ArgError, Parsed};
pub use spec::{AlgorithmSpec, OracleArg, ProtocolSpec};
