//! The unified metrics registry.
//!
//! Counters live all over the stack — per-connection `ConnStats`, the
//! router's lookup counters, layer meters, buffer-pool hit rates, fault
//! injectors. A [`MetricsSnapshot`] flattens all of them into one
//! ordered `(scope, name) → value` registry taken at a point in
//! (logical) time, so totals can be reconciled, deltas computed between
//! snapshots, and the whole thing rendered as a human table or JSON
//! lines. Snapshots are taken off the hot path; they may allocate.

use crate::event::Nanos;
use std::collections::BTreeMap;
use std::fmt;

/// A point-in-time flattening of every counter in an endpoint.
///
/// Stored scope-first (`scope → name → value`) so lookups and
/// accumulation can borrow `&str` keys: [`MetricsSnapshot::add`] and
/// [`MetricsSnapshot::get`] allocate **only** when a scope or name is
/// seen for the first time — which is what lets a
/// [`TelemetryDomain`](crate::TelemetryDomain) fold stats deltas on
/// every drain batch with a heap-silent steady state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    at: Nanos,
    entries: BTreeMap<String, BTreeMap<String, u64>>,
}

impl MetricsSnapshot {
    /// An empty snapshot stamped `at` logical nanoseconds.
    pub fn new(at: Nanos) -> MetricsSnapshot {
        MetricsSnapshot {
            at,
            entries: BTreeMap::new(),
        }
    }

    /// The snapshot's timestamp.
    pub fn at(&self) -> Nanos {
        self.at
    }

    /// Returns the counter slot for `(scope, name)`, creating it at 0.
    /// Allocates only when the scope or name is new.
    fn slot(&mut self, scope: &str, name: &str) -> &mut u64 {
        // Two-phase lookup keeps the warm path borrow-only; the
        // entry-API shortcut would build owned keys on every call.
        if !self.entries.contains_key(scope) {
            self.entries.insert(scope.to_string(), BTreeMap::new());
        }
        let inner = self.entries.get_mut(scope).expect("just ensured");
        if !inner.contains_key(name) {
            inner.insert(name.to_string(), 0);
        }
        inner.get_mut(name).expect("just ensured")
    }

    /// Records (or overwrites) one counter under `scope`.
    pub fn record(&mut self, scope: &str, name: &str, value: u64) {
        *self.slot(scope, name) = value;
    }

    /// Adds `value` to an existing counter (starting at 0).
    pub fn add(&mut self, scope: &str, name: &str, value: u64) {
        *self.slot(scope, name) += value;
    }

    /// Looks up one counter.
    pub fn get(&self, scope: &str, name: &str) -> Option<u64> {
        self.entries.get(scope)?.get(name).copied()
    }

    /// Sums `name` across every scope.
    pub fn total(&self, name: &str) -> u64 {
        self.entries
            .values()
            .filter_map(|inner| inner.get(name))
            .sum()
    }

    /// Number of registered counters.
    pub fn len(&self) -> usize {
        self.entries.values().map(|inner| inner.len()).sum()
    }

    /// True if no counters are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(scope, name, value)` in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, u64)> {
        self.entries
            .iter()
            .flat_map(|(s, inner)| inner.iter().map(move |(n, v)| (s.as_str(), n.as_str(), *v)))
    }

    /// Counters that changed since `earlier`, as `self − earlier`
    /// (saturating; counters absent earlier count from 0). The result
    /// is stamped with this snapshot's time.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new(self.at);
        for (scope, name, v) in self.iter() {
            let before = earlier.get(scope, name).unwrap_or(0);
            let d = v.saturating_sub(before);
            if d != 0 {
                out.record(scope, name, d);
            }
        }
        out
    }

    /// Renders a right-aligned text table grouped by scope.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "metrics @ {} ns ({} counters)\n",
            self.at,
            self.len()
        ));
        let name_w = self
            .iter()
            .map(|(_, n, _)| n.len())
            .max()
            .unwrap_or(4)
            .max("name".len());
        let val_w = self
            .iter()
            .map(|(_, _, v)| v.to_string().len())
            .max()
            .unwrap_or(1)
            .max("value".len());
        for (scope, inner) in &self.entries {
            s.push_str(&format!("  [{scope}]\n"));
            for (name, v) in inner {
                s.push_str(&format!("    {name:<name_w$}  {v:>val_w$}\n"));
            }
        }
        s
    }

    /// Renders one JSON object per line:
    /// `{"at":N,"scope":"...","name":"...","value":N}`.
    pub fn to_json_lines(&self) -> String {
        let mut s = String::new();
        for (scope, name, v) in self.iter() {
            s.push_str(&format!(
                "{{\"at\":{},\"scope\":\"{}\",\"name\":\"{}\",\"value\":{}}}\n",
                self.at,
                json_escape(scope),
                json_escape(name),
                v
            ));
        }
        s
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_table())
    }
}

/// Escapes `s` for a JSON string literal (every exporter in the crate).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new(1_000);
        s.record("conn0", "fast_sends", 90);
        s.record("conn0", "slow_sends", 10);
        s.record("router", "cookie_hits", 99);
        s
    }

    #[test]
    fn record_get_total() {
        let mut s = sample();
        s.record("conn1", "fast_sends", 5);
        assert_eq!(s.get("conn0", "fast_sends"), Some(90));
        assert_eq!(s.get("connX", "fast_sends"), None);
        assert_eq!(s.total("fast_sends"), 95);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn add_accumulates() {
        let mut s = MetricsSnapshot::new(0);
        s.add("pool", "hits", 3);
        s.add("pool", "hits", 4);
        assert_eq!(s.get("pool", "hits"), Some(7));
    }

    #[test]
    fn delta_reports_only_changes() {
        let before = sample();
        let mut after = sample();
        after.record("conn0", "fast_sends", 150);
        after.record("conn0", "frames_in", 7); // new counter
        let d = after.delta(&before);
        assert_eq!(d.get("conn0", "fast_sends"), Some(60));
        assert_eq!(d.get("conn0", "frames_in"), Some(7));
        assert_eq!(
            d.get("conn0", "slow_sends"),
            None,
            "unchanged counters omitted"
        );
        assert_eq!(d.get("router", "cookie_hits"), None);
    }

    #[test]
    fn table_groups_by_scope() {
        let t = sample().render_table();
        assert!(t.contains("[conn0]"), "{t}");
        assert!(t.contains("[router]"), "{t}");
        assert!(t.contains("fast_sends"), "{t}");
        // Scope header appears once even with two counters under it.
        assert_eq!(t.matches("[conn0]").count(), 1, "{t}");
    }

    #[test]
    fn json_lines_are_one_object_per_counter() {
        let j = sample().to_json_lines();
        assert_eq!(j.lines().count(), 3);
        assert!(
            j.lines()
                .all(|l| l.starts_with("{\"at\":1000,\"scope\":\"") && l.ends_with('}')),
            "{j}"
        );
        assert!(j.contains("\"name\":\"cookie_hits\",\"value\":99"), "{j}");
    }

    #[test]
    fn json_escapes_quotes() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    }

    #[test]
    fn iteration_order_is_deterministic() {
        let a: Vec<_> = sample()
            .iter()
            .map(|(s, n, _)| format!("{s}.{n}"))
            .collect();
        let b: Vec<_> = sample()
            .iter()
            .map(|(s, n, _)| format!("{s}.{n}"))
            .collect();
        assert_eq!(a, b);
        assert_eq!(a[0], "conn0.fast_sends");
    }
}
