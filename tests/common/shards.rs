//! The shard counts every endpoint suite runs at.
//!
//! `ShardedEndpoint` is the only endpoint type, so "the single-table
//! host" and "the sharded demux" are the same code at different
//! counts; a suite that drives an endpoint takes the count as its
//! parameter and is run here at both. Included per test binary with
//! `#[path = "common/shards.rs"] mod shards;`.

/// Runs `suite` once for a one-shard endpoint and once for an
/// eight-shard one.
pub fn at_each_shard_count(mut suite: impl FnMut(usize)) {
    for shards in [1, 8] {
        suite(shards);
    }
}
