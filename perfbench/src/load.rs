//! Load generation: a stateless mixer for seeded inputs, a Zipf sampler
//! for skewed popularity, and the open-loop schedule that times each
//! request from when it was due.

use std::time::{Duration, Instant};

/// splitmix64, the standard 64-bit finalizing mixer. Stateless, so an
/// input is addressable by `(seed, stream, index)` alone and a replay can
/// regenerate any request without the generator's history.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds `x` into a running digest, order-sensitively — the same fold
/// the serving harness uses for its response digests.
pub fn fold_digest(acc: u64, x: u64) -> u64 {
    splitmix64(acc ^ x.rotate_left(17))
}

/// Uniform in [0, 1) from a mixed word.
pub fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Samples ranks 0..n with probability proportional to 1 / (rank+1)^s.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty population");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank whose CDF interval holds `u` in [0, 1).
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Time source of an open-loop client. The wall clock waits for real; a
/// test clock only moves when told to, so schedules can be checked
/// without sleeping.
pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Returns once `now_ns() >= t_ns`.
    fn wait_until(&self, t_ns: u64);
}

/// Nanoseconds since a shared epoch. Waits sleep while the deadline is
/// far and yield for the last stretch, since requests are tens of
/// microseconds apart and a sleep overshoots by about that much.
#[derive(Clone, Copy)]
pub struct WallClock {
    pub epoch: Instant,
}

const YIELD_NS: u64 = 200_000;

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, t_ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= t_ns {
                return;
            }
            if t_ns - now > YIELD_NS {
                std::thread::sleep(Duration::from_nanos(t_ns - now - YIELD_NS / 2));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// When one request was due, sent, and answered.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
}

impl Timing {
    /// Latency from the due time, so a stall also charges the requests
    /// that queued behind it.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    /// How late the generator sent the request.
    pub fn lag_ns(&self) -> u64 {
        self.sent_ns - self.due_ns
    }
}

/// Runs one open-loop client: request `i` is due at
/// `first_due_ns + i * interval_ns`, whether or not earlier ones have
/// finished, until the next due time reaches `end_ns`. `issue(i)` sends
/// request `i` and returns when it is answered.
pub fn open_loop<C: Clock>(
    clock: &C,
    first_due_ns: u64,
    interval_ns: u64,
    end_ns: u64,
    mut issue: impl FnMut(usize),
) -> Vec<Timing> {
    assert!(interval_ns > 0, "open loop needs a positive interval");
    let mut out = Vec::new();
    for i in 0.. {
        let due_ns = first_due_ns + i as u64 * interval_ns;
        if due_ns >= end_ns {
            break;
        }
        clock.wait_until(due_ns);
        let sent_ns = clock.now_ns();
        issue(i);
        out.push(Timing {
            due_ns,
            sent_ns,
            done_ns: clock.now_ns(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    struct FakeClock {
        now: Cell<u64>,
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.now.get()
        }
        fn wait_until(&self, t_ns: u64) {
            self.now.set(self.now.get().max(t_ns));
        }
    }

    /// One request stalls for 10 ms on a 1 ms schedule: every request due
    /// during the stall is sent late and its latency counts the wait,
    /// shrinking by one interval per request until the backlog clears.
    #[test]
    fn a_stall_inflates_the_latency_of_requests_behind_it() {
        let clock = FakeClock { now: Cell::new(0) };
        let (interval, service, stall) = (1_000_000u64, 100_000u64, 10_000_000u64);
        let timings = open_loop(&clock, 0, interval, 20 * interval, |i| {
            let cost = if i == 3 { stall } else { service };
            clock.now.set(clock.now.get() + cost);
        });
        assert_eq!(timings.len(), 20);
        let lat: Vec<u64> = timings.iter().map(Timing::latency_ns).collect();
        for (i, &l) in lat.iter().enumerate().take(3) {
            assert_eq!(l, service, "request {i} ran on time");
        }
        assert_eq!(lat[3], stall);
        // Request 4 was due at 4 ms but could only start at 13 ms.
        assert_eq!(timings[4].lag_ns(), 9 * interval);
        assert_eq!(lat[4], 9 * interval + service);
        // Requests 4..=13 are sent late; the backlog drains at 0.9 ms per
        // request, so request 14 is the first on time again.
        assert!(lat[4..14].iter().all(|&l| l > service), "{lat:?}");
        assert!(lat[4..14].windows(2).all(|w| w[0] > w[1]), "{lat:?}");
        assert!(lat[14..].iter().all(|&l| l == service), "{lat:?}");
        // Closed-loop timing from the send time would have hidden it.
        let from_send: Vec<u64> = timings.iter().map(|t| t.done_ns - t.sent_ns).collect();
        assert_eq!(from_send[4], service);
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let z = Zipf::new(1000, 1.0);
        let mut counts = vec![0usize; 1000];
        for i in 0..100_000u64 {
            counts[z.rank(unit(splitmix64(i)))] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[500]);
        // Rank 0 holds 1/H(1000) ≈ 13% of the mass.
        assert!((12_000..15_000).contains(&counts[0]), "{}", counts[0]);
        assert_eq!(z.rank(0.0), 0);
        assert_eq!(z.rank(0.999_999_999), 999);
    }
}
