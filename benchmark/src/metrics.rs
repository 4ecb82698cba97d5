//! The benchmark's contract: workloads, metric names, units, directions
//! and bounds. `BENCHMARK.json` at the repository root is rendered from
//! these tables (`--print-contract`), and a unit test keeps the two
//! identical.

use crate::trace::Span;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "echo_1conn",
        why: "one 8 B echo in flight on one connection pair: all time is the fast path, filter, pool and masked post phases; router, shard and unet are bypassed",
    },
    WorkloadDef {
        name: "stream_pack",
        why: "one-way 8 B stream with a 64-deep backlog: the packing regime, per-frame work amortised 64x, so backlog, pack/unpack and pool dominate",
    },
    WorkloadDef {
        name: "bulk_16k",
        why: "one-way 16 KiB messages: fragmentation into 4 KiB frames, checksums and copies dominate; fast-path share is 0 (layered traversal)",
    },
    WorkloadDef {
        name: "fanin_16k",
        why: "16384 connections echo through one 8-shard endpoint in bursts of 32 random clients: demux, router, shard front and cold per-connection state",
    },
    WorkloadDef {
        name: "churn",
        why: "connection lifecycles (build, admit, 4 echoes, remove) beside 1024 standing connections: the control path that writes the tables fanin_16k reads",
    },
    WorkloadDef {
        name: "lossy_stream",
        why: "8 B stream over a simulated link that drops 2%, corrupts, duplicates and reorders: traffic leaving the fast path, retransmit timers, dedupe",
    },
    WorkloadDef {
        name: "udp_echo16",
        why: "16 x 32 B echoes in flight over two UDP sockets on host loopback: the only workload that crosses the kernel (sendmmsg/recvmmsg, pool refill)",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cost_per_op_cu",
        unit: "cu/op",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p50_cu",
        unit: "cu",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wire_bytes_per_op",
        unit: "B/op",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
];

#[derive(Debug, Clone, PartialEq)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn layer(name: &str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name: name.to_string(),
        unit,
        better,
    }
}

/// Unit probes: (metric name, unit).
pub const PROBES: &[(&str, &str)] = &[
    ("wire.preamble_decode.unit_cu", "cu"),
    ("router.probe.unit_cu", "cu"),
    ("filter.run.unit_cu", "cu"),
    ("pack.unit_cu_per_msg", "cu/msg"),
    ("unpack.unit_cu_per_msg", "cu/msg"),
    ("buf.pool_cycle.unit_cu", "cu"),
];

/// Counters: (metric name, unit, direction).
pub const COUNTERS: &[(&str, &str, Better)] = &[
    ("conn.fast_send_share", "ratio", Better::Higher),
    ("conn.fast_deliver_share", "ratio", Better::Higher),
    ("conn.queued_send_share", "ratio", Better::Lower),
    ("conn.msgs_per_frame", "1/frame", Better::Higher),
    ("conn.frames_per_op", "1/op", Better::Lower),
    ("conn.control_frames_per_op", "1/op", Better::Lower),
    ("conn.predict_miss_share", "ratio", Better::Lower),
    ("conn.filter_miss_share", "ratio", Better::Lower),
    ("conn.ident_frames_per_op", "1/op", Better::Lower),
    ("conn.drops_per_op", "1/op", Better::Lower),
    ("stack.pre_calls_per_op", "1/op", Better::Lower),
    ("stack.post_calls_per_op", "1/op", Better::Lower),
    ("buf.allocs_per_op", "1/op", Better::Lower),
    ("buf.alloc_bytes_per_op", "B/op", Better::Lower),
    ("buf.pool_hit_share", "ratio", Better::Higher),
    ("shard.migrations_per_conn", "1/conn", Better::Lower),
    ("shard.front_rejects_per_op", "1/op", Better::Lower),
    ("router.tombstones", "count", Better::Lower),
    ("router.cookies", "count", Better::Lower),
    ("net.frames_per_syscall", "1/call", Better::Higher),
    ("net.empty_poll_share", "ratio", Better::Lower),
    ("net.rejects_per_op", "1/op", Better::Lower),
    ("net.fault_drops_per_op", "1/op", Better::Lower),
];

/// Harness rows: (metric name, unit, direction).
pub const HARNESS: &[(&str, &str, Better)] = &[
    ("host.calib_ns", "ns", Better::Lower),
    ("host.calib_spread", "ratio", Better::Lower),
    ("host.slices", "count", Better::Higher),
    ("raw.ns_per_op", "ns", Better::Lower),
    ("raw.ops_per_sec", "1/s", Better::Higher),
    ("tail.lat_p99_cu", "cu", Better::Lower),
    ("harness.self_cu_per_op", "cu/op", Better::Lower),
    ("trace.span_cost_cu", "cu", Better::Lower),
    ("trace.overhead_share", "ratio", Better::Lower),
    ("trace.unexplained_share", "ratio", Better::Lower),
    ("trace.residual_share", "ratio", Better::Lower),
];

/// Every per-layer metric, in the order they are printed.
pub fn per_layer() -> Vec<PerLayer> {
    let mut out = Vec::new();
    for &span in Span::ALL {
        let name = span.name();
        out.push(layer(
            &format!("{name}.self_cu_per_op"),
            "cu/op",
            Better::Lower,
        ));
        out.push(layer(
            &format!("{name}.calls_per_op"),
            "1/op",
            Better::Lower,
        ));
    }
    out.extend(PROBES.iter().map(|&(n, u)| layer(n, u, Better::Lower)));
    out.extend(COUNTERS.iter().map(|&(n, u, b)| layer(n, u, b)));
    out.extend(HARNESS.iter().map(|&(n, u, b)| layer(n, u, b)));
    out
}

/// Seconds one run measures for (`run_seconds` in the contract).
pub const RUN_SECONDS: u32 = 10;

/// The text of `BENCHMARK.json`.
pub fn contract_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn contract_limits_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(layers.iter().map(|m| m.name.as_str()));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(layers.iter().all(|m| unit_ok(m.unit)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(contract_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_contract_matches_the_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            contract_json(),
            "regenerate with `cargo run --release --manifest-path benchmark/Cargo.toml -- --print-contract > BENCHMARK.json`"
        );
    }
}
