//! Request-space properties: every `ProfilingRequest` and
//! `PortfolioRequest` that `validate` accepts must execute without a
//! panic and without an execute-time error, and `POST /v1/jobs` answers
//! a request `validate` rejects with a 400 before any worker sees it.
//!
//! Requests are drawn from a seeded generator per case: capacity at most
//! 1/16 of the chip (plus scales that leave no represented bit), at most
//! 8 rounds, and for every float field either an ordinary value or an
//! edge value (zeros of both signs, subnormals, the chamber and interval
//! bounds and their neighbours, huge values, infinities, NaN).
//!
//! Those generators stay far below the job-size bound, so a second
//! generator draws otherwise-valid requests whose cost (capacity ×
//! longest interval × rounds) lies within a factor of two of
//! `MAX_JOB_COST` on either side, the bound itself included: `validate`
//! and `POST /v1/jobs` must reject exactly the ones over it, and no
//! worker may see those.
//!
//! Run in release, as the service CI job does (a debug build runs an
//! eighth of the cases):
//!
//! ```text
//! cargo test --release -p reaper-serve --test request_space
//! ```

#![allow(clippy::expect_used, clippy::unwrap_used)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use reaper_core::{
    PatternSpec, ProfilingRequest, JOB_COST_MIN_INTERVAL_MS, MAX_JOB_COST, MAX_PROFILED_INTERVAL_MS,
};
use reaper_dram_model::Vendor;
use reaper_portfolio::PortfolioRequest;
use reaper_serve::api::{encode_job_body, parse_job_body};
use reaper_serve::{ConnectionPool, JobRequest, Server, ServerConfig};

/// The thermal chamber's range in °C (`reaper_softmc::thermal`).
const CHAMBER: (f64, f64) = (40.0, 55.0);

/// One of `items`, uniformly.
fn one_of<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    let i = usize::try_from(rng.below(items.len() as u64)).expect("an index fits usize");
    *items.get(i).expect("below(len) is in range")
}

/// An ordinary value from `lo..hi` or, one time in four, one of `edges`.
fn pick(rng: &mut TestRng, lo: f64, hi: f64, edges: &[f64]) -> f64 {
    if rng.below(4) != 0 {
        lo + (hi - lo) * rng.next_f64()
    } else {
        one_of(rng, edges)
    }
}

/// Edge values every float field draws from.
const COMMON_EDGES: [f64; 10] = [
    0.0,
    -0.0,
    -1.0,
    f64::MIN_POSITIVE,
    5e-324,
    1e308,
    f64::MAX,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

fn float(rng: &mut TestRng, lo: f64, hi: f64, edges: &[f64]) -> f64 {
    let all: Vec<f64> = COMMON_EDGES.iter().chain(edges).copied().collect();
    pick(rng, lo, hi, &all)
}

fn rounds(rng: &mut TestRng) -> u32 {
    u32::try_from(rng.below(9)).expect("at most 8")
}

/// A capacity scale of at most 1/16, or an invalid one: a zero part, or
/// a denominator so large that no represented bit is left. The 2^34 and
/// 2^35 denominators leave one bit and none of a 2 GB chip.
fn capacity(rng: &mut TestRng) -> (u64, u64) {
    let num = 1 + rng.below(2);
    let den = match rng.below(16) {
        0 => 0,
        1 => u64::MAX,
        2 => 1 << 34,
        3 => 1 << 35,
        4 => num * (1 << 20),
        _ => num * 16 * (1 << rng.below(4)),
    };
    (if rng.below(32) == 0 { 0 } else { num }, den)
}

fn interval_edges() -> [f64; 8] {
    let max = MAX_PROFILED_INTERVAL_MS;
    [1.0 - 1e-9, 1.0, 64.0, 4096.0, max - 512.0, max, max + 1e-9, 1e5]
}

fn profiling_request(rng: &mut TestRng) -> ProfilingRequest {
    let (capacity_num, capacity_den) = capacity(rng);
    let (lo, hi) = CHAMBER;
    ProfilingRequest {
        vendor: one_of(rng, &Vendor::ALL),
        capacity_num,
        capacity_den,
        seed: rng.next_u64(),
        target_interval_ms: float(rng, 64.0, 4096.0, &interval_edges()),
        target_ambient_c: float(rng, lo, hi - 10.0, &[lo, hi, lo - 1e-9, hi + 1e-9, -273.15]),
        reach_delta_ms: float(rng, 0.0, 1024.0, &interval_edges()),
        reach_delta_temp_c: float(rng, 0.0, 10.0, &[hi - lo, hi - lo + 1e-9]),
        rounds: rounds(rng),
        patterns: one_of(rng, &[PatternSpec::Standard, PatternSpec::RandomOnly]),
    }
}

fn portfolio_request(rng: &mut TestRng) -> PortfolioRequest {
    let (capacity_num, capacity_den) = capacity(rng);
    let (lo, hi) = CHAMBER;
    PortfolioRequest {
        vendor: one_of(rng, &Vendor::ALL),
        capacity_num,
        capacity_den,
        seed: rng.next_u64(),
        target_interval_ms: float(rng, 64.0, 4096.0, &interval_edges()),
        target_ambient_c: float(rng, lo, hi - 10.0, &[lo, hi - 10.0, hi - 10.0 + 1e-9, hi]),
        coverage_goal: float(rng, 0.05, 1.0, &[1.0, 1.0 + f64::EPSILON, 1e-9]),
        max_fpr: float(rng, 0.0, 1.0, &[1.0, 1.0 + f64::EPSILON, 1e-9]),
        rounds: rounds(rng),
        patterns: one_of(rng, &[PatternSpec::Standard, PatternSpec::RandomOnly]),
    }
}

/// Runs `execute` on a validated request, naming the request if it panics
/// or errors.
fn must_execute<T, E: std::fmt::Display>(
    request: &impl std::fmt::Debug,
    execute: impl FnOnce() -> Result<T, E>,
) {
    match catch_unwind(AssertUnwindSafe(execute)) {
        Ok(Ok(_)) => {}
        Ok(Err(e)) => panic!("validated request failed to execute: {e}\n{request:?}"),
        Err(_) => panic!("validated request panicked\n{request:?}"),
    }
}

/// Cases per property: the full sweep in release, a sample in the debug
/// `cargo test --workspace` run, where one long-interval job takes
/// seconds.
const CASES: u32 = if cfg!(debug_assertions) { 64 } else { 512 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn validated_profiling_requests_execute(seed: u64) {
        let request = profiling_request(&mut TestRng::from_seed(seed));
        if request.validate().is_ok() {
            must_execute(&request, || request.execute());
        }
    }

    #[test]
    fn validated_portfolio_requests_execute(seed: u64) {
        let request = portfolio_request(&mut TestRng::from_seed(seed));
        if request.validate().is_ok() {
            must_execute(&request, || request.execute());
        }
    }
}

#[test]
fn out_of_range_intervals_get_a_400_from_post_jobs() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let pool = ConnectionPool::new(server.local_addr(), 1);
    for body in [
        r#"{"vendor":"B","seed":1,"target_interval_ms":1e308}"#,
        r#"{"vendor":"B","seed":1,"target_interval_ms":1024,"reach_delta_ms":1e308}"#,
        r#"{"vendor":"B","seed":1,"target_interval_ms":100000}"#,
        r#"{"vendor":"B","seed":1,"target_interval_ms":1024,"capacity_den":18446744073709551615}"#,
        r#"{"kind":"portfolio","vendor":"B","seed":1,"target_interval_ms":1e308}"#,
    ] {
        let response = pool
            .request("POST", "/v1/jobs", &[], body.as_bytes())
            .expect("the server answers");
        assert_eq!(response.status, 400, "{body}");
    }
    server.shutdown();
}

#[test]
fn oversized_jobs_get_a_400_from_post_jobs() {
    // Past the rounds cap, or past the capacity × interval × rounds bound:
    // rejected by `validate` before any worker sees them.
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let pool = ConnectionPool::new(server.local_addr(), 1);
    for body in [
        r#"{"vendor":"B","seed":1,"target_interval_ms":1024,"rounds":65}"#,
        r#"{"vendor":"B","seed":1,"target_interval_ms":1024,"rounds":4294967295}"#,
        r#"{"vendor":"B","seed":1,"target_interval_ms":4096,"capacity_num":1,"capacity_den":1,"rounds":4}"#,
        r#"{"vendor":"B","seed":1,"target_interval_ms":64,"capacity_num":64,"capacity_den":1,"rounds":1}"#,
        r#"{"kind":"portfolio","vendor":"B","seed":1,"target_interval_ms":512,"rounds":65}"#,
        r#"{"kind":"portfolio","vendor":"B","seed":1,"target_interval_ms":512,"capacity_num":16,"capacity_den":1}"#,
    ] {
        let response = pool
            .request("POST", "/v1/jobs", &[], body.as_bytes())
            .expect("the server answers");
        assert_eq!(response.status, 400, "{body}");
    }
    server.shutdown();
}

/// The reach offset a portfolio job's cost counts: the interval offset of
/// its hottest candidate strategy.
const PORTFOLIO_REACH_MS: f64 = 512.0;

/// A job's cost as `validate` counts it, in the same expression order.
fn job_cost(num: u64, den: u64, longest_ms: f64, rounds: u32) -> f64 {
    num as f64 / den as f64 * longest_ms.max(JOB_COST_MIN_INTERVAL_MS) * f64::from(rounds)
}

/// An otherwise-valid profiling or portfolio request whose cost lies
/// within a factor of two of [`MAX_JOB_COST`], with its cost. Half the
/// draws take a power-of-two capacity and longest interval, whose costs
/// land on the bound exactly.
fn sized_request(rng: &mut TestRng) -> (JobRequest, f64) {
    let portfolio = rng.below(2) == 1;
    let reach = if portfolio { PORTFOLIO_REACH_MS } else { 0.0 };
    let (num, den) = (1 + rng.below(4), 1 << rng.below(7));
    // From 512 ms (1,024 for a portfolio, whose target must stay
    // positive), below the interval the cost stops shrinking at.
    let shortest = if portfolio { 10 } else { 9 };
    let longest = if rng.below(2) == 0 {
        f64::from(1u32 << (shortest + rng.below(14 - shortest)))
    } else {
        let lo = f64::from(1u32 << shortest);
        lo + (MAX_PROFILED_INTERVAL_MS - lo) * rng.next_f64()
    };
    let cost = |rounds| job_cost(num, den, longest, rounds);
    let goal = MAX_JOB_COST * (0.5 + 1.5 * rng.next_f64());
    // The rounds whose cost is nearest the goal or, one draw in four, the
    // most rounds within the bound or one more, within the rounds cap.
    let rounds = if rng.below(4) == 0 {
        let within = (1..64).rev().find(|&r| cost(r) <= MAX_JOB_COST).unwrap_or(1);
        within + u32::from(rng.below(2) == 1)
    } else {
        (1..=64)
            .min_by(|&a, &b| (cost(a) - goal).abs().total_cmp(&(cost(b) - goal).abs()))
            .expect("a nonempty range")
    };
    let (target, reach_delta) = if portfolio {
        (longest - reach, 0.0)
    } else {
        let target = (longest * (0.5 + 0.5 * rng.next_f64())).max(64.0);
        (target, longest - target)
    };
    let vendor = one_of(rng, &Vendor::ALL);
    let patterns = one_of(rng, &[PatternSpec::Standard, PatternSpec::RandomOnly]);
    let request = if portfolio {
        JobRequest::Portfolio(PortfolioRequest {
            vendor,
            capacity_num: num,
            capacity_den: den,
            seed: rng.next_u64(),
            target_interval_ms: target,
            target_ambient_c: 45.0,
            coverage_goal: 0.95,
            max_fpr: 0.5,
            rounds,
            patterns,
        })
    } else {
        JobRequest::Profiling(ProfilingRequest {
            vendor,
            capacity_num: num,
            capacity_den: den,
            seed: rng.next_u64(),
            target_interval_ms: target,
            target_ambient_c: 45.0,
            reach_delta_ms: reach_delta,
            reach_delta_temp_c: 5.0 * rng.next_f64(),
            rounds,
            patterns,
        })
    };
    (request, job_cost(num, den, target + reach_delta + reach, rounds))
}

#[test]
fn exactly_the_jobs_over_the_size_bound_are_rejected() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let pool = ConnectionPool::new(server.local_addr(), 1);
    let mut rng = TestRng::from_seed(0x51_2E);
    let (mut over, mut under, mut on_bound) = (0, 0, 0);
    for _ in 0..400 {
        let (request, cost) = sized_request(&mut rng);
        let body = encode_job_body(&request);
        let verdict = request.validate();
        // The body a client sends parses back to the request `POST`
        // validates.
        let parsed = parse_job_body(body.as_bytes()).expect("an encoded request parses");
        assert_eq!(parsed.validate().is_ok(), verdict.is_ok(), "{body}");
        if cost > MAX_JOB_COST {
            over += 1;
            let e = verdict.expect_err("over the job-size bound");
            assert!(e.to_string().contains("too large"), "{e}: {body}");
            let response = pool
                .request("POST", "/v1/jobs", &[], body.as_bytes())
                .expect("the server answers");
            assert_eq!(response.status, 400, "{body}");
        } else {
            // Accepted, but not run here: a job at the bound takes a
            // second or more.
            verdict.unwrap_or_else(|e| panic!("{e}: {body}"));
            under += 1;
            on_bound += usize::from(cost == MAX_JOB_COST);
        }
    }
    assert!(over > 100 && under > 100 && on_bound > 10, "{over} over, {under} under, {on_bound} on the bound");
    // No rejected job reached the queue.
    let metrics = pool.request("GET", "/metrics", &[], b"").expect("the server answers");
    let text = String::from_utf8(metrics.body).expect("metrics are UTF-8");
    assert!(text.lines().any(|l| l == "reaper_jobs_submitted_total 0"), "{text}");
    server.shutdown();
}
