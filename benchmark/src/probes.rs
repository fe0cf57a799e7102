//! Layer probes of the traced pass: each builds one buffer, frame, tile or
//! queue of the workload's exact shape and times the layer's *public*
//! function directly. Every probe is a child span of the driver track.

use crate::harness::Meter;
use crate::stats::median;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};
use subsonic_cluster::bus::TransferPayload;
use subsonic_cluster::{CalendarQueue, NetworkConfig, NetworkModel};
use subsonic_exec::checkpoint::{dump_tile2, restore_tile2};
use subsonic_net::link::{mem_pair, tcp_link, Link};
use subsonic_net::wire::{decode_msg, encode_msg};
use subsonic_net::Msg;
use subsonic_obs::Category;
use subsonic_solvers::TileState2;

/// Median seconds per call of `f`, over at least `min_reps` calls and until
/// `budget_s` has passed; the first call (cold) is not counted.
fn median_secs(budget_s: f64, min_reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || started.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Size of the `mem.copy_bytes_per_s` buffer: 64 MiB, sixteen times the
/// 4 MiB of L2 the recording box has in total (2 MiB per core; the
/// VM-reported 260 MiB L3 is a host figure the guest cannot count on).
pub const COPY_BYTES: usize = 64 << 20;

/// `mem.copy_bytes_per_s`: bytes *moved* (read + written) per second by a
/// plain copy of a [`COPY_BYTES`] buffer — the machine ceiling the kernels'
/// computed bytes are compared with.
pub fn mem_copy_bytes_per_s(meter: &mut Meter) -> f64 {
    meter.span(Category::Compute, "probe:memcpy", |m| {
        let src = vec![1.0f64; COPY_BYTES / 8];
        let mut dst = vec![0.0f64; COPY_BYTES / 8];
        let s = median_secs(m.budget(0.15), 5, || {
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut dst);
        });
        2.0 * COPY_BYTES as f64 / s
    })
}

/// Seconds to copy `doubles` `f64`s between two warm buffers — the floor a
/// halo pack of the same length is compared with (`grid.pack_vs_memcpy`).
pub fn small_copy_s(doubles: usize, meter: &mut Meter) -> f64 {
    meter.span(Category::Compute, "probe:memcpy(strip)", |m| {
        let src = vec![1.0f64; doubles.max(1)];
        let mut dst = vec![0.0f64; doubles.max(1)];
        // batches of 64 copies: one copy of a few KiB is below timer noise
        median_secs(m.budget(0.02), 20, || {
            for _ in 0..64 {
                dst.copy_from_slice(std::hint::black_box(&src));
                std::hint::black_box(&mut dst);
            }
        }) / 64.0
    })
}

/// `exec.ckpt.*` on one tile.
#[derive(Debug, Clone, Copy, Default)]
pub struct CkptProbe {
    /// `dump_tile2` throughput.
    pub dump_bytes_per_s: f64,
    /// `restore_tile2` throughput.
    pub restore_bytes_per_s: f64,
    /// Sealed size of the tile.
    pub bytes_per_tile: f64,
}

/// Times `dump_tile2` / `restore_tile2` on `tile`.
pub fn checkpoint(tile: &TileState2, meter: &mut Meter) -> Result<CkptProbe, String> {
    meter.span(Category::Checkpoint, "probe:checkpoint", |m| {
        let bytes = dump_tile2(tile);
        restore_tile2(&bytes).map_err(|e| format!("restore_tile2: {e}"))?;
        let n = bytes.len() as f64;
        let dump_s = median_secs(m.budget(0.1), 5, || {
            std::hint::black_box(dump_tile2(std::hint::black_box(tile)));
        });
        let restore_s = median_secs(m.budget(0.1), 5, || {
            std::hint::black_box(restore_tile2(std::hint::black_box(&bytes)).is_ok());
        });
        Ok(CkptProbe {
            dump_bytes_per_s: n / dump_s,
            restore_bytes_per_s: n / restore_s,
            bytes_per_tile: n,
        })
    })
}

/// `net.wire.*` and `net.link.*` for one halo-sized frame.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireProbe {
    /// `encode_msg` of one `Msg::Halo`.
    pub encode_s: f64,
    /// `decode_msg` of the same frame.
    pub decode_s: f64,
    /// Encoded size.
    pub bytes: f64,
    /// Ping-pong of that frame over a loopback `tcp_link`.
    pub tcp_rtt_s: f64,
    /// Ping-pong of that frame over a `mem_pair`.
    pub mem_rtt_s: f64,
}

/// Echoes frames on `link` until the peer hangs up.
fn echo(mut link: Link) {
    while let Ok(frame) = link.rx.recv(Duration::from_secs(5)) {
        if link.tx.send(&frame).is_err() {
            break;
        }
    }
}

/// Median round-trip of `frame` over `near`, with `far` echoing on a
/// helper thread (the one extra thread keeps the probe at P = 2).
fn ping_pong(mut near: Link, far: Link, frame: &[u8], budget_s: f64) -> Result<f64, String> {
    let echoer = std::thread::spawn(move || echo(far));
    let mut rtt = Vec::new();
    let started = Instant::now();
    let mut failure = None;
    while rtt.len() < 200 || started.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        let back = near
            .tx
            .send(frame)
            .and_then(|()| near.rx.recv(Duration::from_secs(5)));
        match back {
            Ok(b) if b.len() == frame.len() => rtt.push(t0.elapsed().as_secs_f64()),
            Ok(_) => failure = Some("echo returned a different frame".to_string()),
            Err(e) => failure = Some(format!("ping-pong: {e}")),
        }
        if failure.is_some() {
            break;
        }
    }
    drop(near); // hang up: the echo loop ends
    echoer
        .join()
        .map_err(|_| "echo thread panicked".to_string())?;
    match failure {
        Some(e) => Err(e),
        None => Ok(median(&rtt[rtt.len() / 10..])), // first tenth warms the path
    }
}

/// Times the wire codec and the two link kinds on a `Msg::Halo` carrying a
/// strip of `doubles` values.
pub fn wire(doubles: usize, meter: &mut Meter) -> Result<WireProbe, String> {
    meter.span(Category::Net, "probe:wire+link", |m| {
        let msg = Msg::Halo {
            epoch: 0,
            step: 7,
            xch: 0,
            face: 1,
            data: (0..doubles).map(|i| 1.0 + i as f64 * 1e-9).collect(),
        };
        let frame = encode_msg(&msg);
        if decode_msg(&frame).map_err(|e| e.to_string())? != msg {
            return Err("wire codec does not round-trip a halo frame".into());
        }
        let encode_s = median_secs(m.budget(0.05), 50, || {
            std::hint::black_box(encode_msg(std::hint::black_box(&msg)));
        });
        let decode_s = median_secs(m.budget(0.05), 50, || {
            std::hint::black_box(decode_msg(std::hint::black_box(&frame)).is_ok());
        });
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let dial = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let (accepted, _) = listener.accept().map_err(|e| e.to_string())?;
        let near = tcp_link(dial).map_err(|e| e.to_string())?;
        let far = tcp_link(accepted).map_err(|e| e.to_string())?;
        let tcp_rtt_s = ping_pong(near, far, &frame, m.budget(0.15))?;
        let (near, far) = mem_pair();
        let mem_rtt_s = ping_pong(near, far, &frame, m.budget(0.15))?;
        Ok(WireProbe {
            encode_s,
            decode_s,
            bytes: frame.len() as f64,
            tcp_rtt_s,
            mem_rtt_s,
        })
    })
}

/// `cluster.queue.ops_per_s`: schedule+pop pairs per second on a
/// `CalendarQueue` holding `pending` events — the hold model at the
/// workload's own peak population.
pub fn queue_ops_per_s(pending: usize, meter: &mut Meter) -> f64 {
    meter.span(Category::Compute, "probe:CalendarQueue", |m| {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut gap = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64 * 0.01
        };
        for i in 0..pending.max(1) {
            q.schedule(gap(), i as u32);
        }
        const BATCH: usize = 100_000;
        let s = median_secs(m.budget(0.15), 3, || {
            for _ in 0..BATCH {
                if let Some((_, k)) = q.pop() {
                    q.schedule(gap(), k);
                }
            }
        });
        BATCH as f64 / s
    })
}

/// `cluster.bus.ops_per_s`: admit+complete pairs per second on a
/// `NetworkModel` of the workload's configuration with `in_flight`
/// transfers kept on the wire.
pub fn bus_ops_per_s(cfg: &NetworkConfig, in_flight: usize, bytes: f64, meter: &mut Meter) -> f64 {
    meter.span(Category::Net, "probe:NetworkModel", |m| {
        let mut net = NetworkModel::new(*cfg);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut now = 0.0f64;
        let mut done = Vec::new();
        let payload = |i: usize| TransferPayload::Halo {
            to_proc: i,
            step: 0,
            xch: 0,
            from_proc: i,
        };
        for i in 0..in_flight.max(1) {
            net.start_transfer(now, bytes, payload(i), &mut rng);
        }
        // admit+complete pairs: every completion is re-admitted, so the
        // in-flight population stays where the workload keeps it
        const BATCH: usize = 20_000;
        let mut pairs = 0usize;
        let s = median_secs(m.budget(0.15), 3, || {
            pairs = 0;
            for i in 0..BATCH {
                if let Some(t) = net.next_completion() {
                    now = now.max(t);
                }
                net.complete_due_into(now, &mut done);
                pairs += done.len();
                for _ in 0..done.len() {
                    net.start_transfer(now, bytes, payload(i), &mut rng);
                }
            }
        });
        pairs as f64 / s
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_probe_round_trips_a_real_frame_over_both_links() {
        let mut meter = Meter::untraced();
        let p = wire(3456, &mut meter).expect("wire probe");
        assert!(p.bytes > 3456.0 * 8.0, "frame carries the strip");
        assert!(p.encode_s > 0.0 && p.decode_s > 0.0);
        assert!(p.tcp_rtt_s > 0.0 && p.mem_rtt_s > 0.0);
    }

    #[test]
    fn engine_probes_report_positive_rates() {
        let mut meter = Meter::untraced();
        assert!(queue_ops_per_s(100, &mut meter) > 1e4);
        assert!(bus_ops_per_s(&NetworkConfig::default().switched(), 64, 720.0, &mut meter) > 1e3);
        assert!(small_copy_s(3456, &mut meter) > 0.0);
    }
}
