//! # apim-net — poll-based event-loop I/O core
//!
//! A thread per connection over blocking TCP is fine for a smoke test and
//! a ceiling for heavy traffic. This crate is the cluster tier's std-only
//! alternative: a small, mio-style readiness layer over nonblocking
//! sockets that lets **one** thread drive thousands of concurrent streams.
//!
//! * [`poll`] — token/interest registration and a readiness scan
//!   ([`Poller`]). With `unsafe` forbidden workspace-wide there is no
//!   `epoll`/`kqueue` binding to call, so readiness is detected with
//!   nonblocking probes (`peek` for readability) and a bounded sleep when
//!   nothing is ready — the *interface* is an event loop's, the syscall
//!   budget is one cheap probe per idle source per tick, and under load
//!   the loop never sleeps at all.
//! * [`buffer`] — [`RecvBuffer`]/[`SendBuffer`]: per-connection byte
//!   buffers. Reads land directly in the receive buffer's tail and
//!   complete frames are handed out as **borrowed slices** of it — the
//!   zero-copy contract that lets a protocol crate parse its
//!   bounds-checked wire types in place, with no intermediate `Vec` per
//!   frame.
//! * [`frame`] — the [`Framing`] trait: a protocol tells the buffer how
//!   long the next frame is (and the hard cap a hostile length prefix
//!   must not exceed); the buffer does the reassembly across arbitrary
//!   TCP chunk boundaries.
//! * [`conn`] — [`Connection`]: one nonblocking stream + both buffers +
//!   close tracking, the per-connection state machine an event loop
//!   iterates.
//!
//! The crate is protocol-agnostic: `apim-cluster` supplies the `APCL`
//! framing and the message semantics on top.

#![deny(missing_docs)]

pub mod buffer;
pub mod conn;
pub mod frame;
pub mod poll;

pub use buffer::{RecvBuffer, SendBuffer};
pub use conn::Connection;
pub use frame::{FrameError, Framing};
pub use poll::{Event, Interest, Poller, Token};
