//! Discrete-event simulation kernel for the DPU reproduction.
//!
//! This crate provides the substrate every timing model in the workspace is
//! built on: a cycle-granular notion of [`Time`], a deterministic
//! [`EventQueue`], queuing-theory helpers such as [`BandwidthServer`] for
//! modelling shared resources (a DDR channel, a crossbar port, a hash
//! engine), basic [`stats`] collection, and a small deterministic RNG.
//!
//! The kernel is deliberately generic: it knows nothing about dpCores, the
//! DMS or the ATE. Higher crates (`dpu-mem`, `dpu-dms`, `dpu-ate`,
//! `dpu-core`) define concrete event payloads and drive the queue.
//! `dpu-cluster` keeps the rack's timeline on the same clock, converting
//! seconds in and out once each ([`Time::from_secs`], [`Time::as_secs`]).
//!
//! # Example
//!
//! ```
//! use dpu_sim::{EventQueue, Time};
//!
//! let mut q = EventQueue::new();
//! q.push(Time::from_cycles(10), "late");
//! q.push(Time::from_cycles(5), "early");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(t.cycles(), 5);
//! assert_eq!(ev, "early");
//! ```

pub mod queue;
pub mod rng;
pub mod server;
pub mod stats;
pub mod time;

pub use queue::EventQueue;
pub use rng::SplitMix64;
pub use server::{BandwidthServer, PipelineStage, ServerConfig};
pub use stats::{Counter, Histogram, RateMeter};
pub use time::{Frequency, Time};
