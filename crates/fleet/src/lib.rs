//! `reaper-fleet`: a sharded control plane over `reaper-serve`.
//!
//! One profiling server computes every profile itself; a *fleet* splits
//! the job-ID space across N shard servers and puts a router in front,
//! so clients keep speaking the exact `/v1/*` API while capacity and
//! availability scale horizontally:
//!
//! * [`hrw`] — rendezvous (highest-random-weight) placement: the owner
//!   of a job ID is a pure function of `(shard name, job ID)`, stable
//!   under shard additions/removals and across restarts,
//! * [`router`] — the frontend: a `poll(2)` event loop that places
//!   requests and drives their shard round-trips itself over
//!   non-blocking keep-alive sockets, and relay threads for chunked
//!   watch streams,
//! * [`replication`] — tick-driven pull sync: every shard mirrors its
//!   peers' profile stores via `/v1/sync/manifest` + `delta?since=`,
//!   installing at the peer's exact epochs so ETags survive failover,
//! * [`topology`] — [`Fleet`](topology::Fleet): N shards + router as
//!   one unit, with kill/restart for rolling-restart drills.
//!
//! ## Determinism contract
//!
//! Job execution stays on the shards, which run the same
//! [`reaper_core::ProfilingRequest::execute`] path as a standalone
//! server — so fleet results are bit-identical to single-node results
//! at any shard count, and the byte-equality conformance test holds the
//! line. Placement and replication introduce no wall-clock or hash-map
//! iteration anywhere.
//!
//! The router and topology need the non-blocking event loop and are
//! therefore unix-only, like [`reaper_serve::eventloop`]; [`hrw`] is
//! portable.

pub mod hrw;
#[cfg(unix)]
pub mod replication;
#[cfg(unix)]
pub mod router;
#[cfg(unix)]
pub mod topology;

#[cfg(unix)]
pub use replication::{ReplicationAgent, ReplicationStats};
#[cfg(unix)]
pub use router::{Router, RouterConfig, ShardDirectory};
#[cfg(unix)]
pub use topology::{Fleet, FleetConfig};
