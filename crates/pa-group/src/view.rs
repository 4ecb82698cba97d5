//! Group views: who is in the group, and who sequences.

use std::fmt;

/// A group view: a numbered membership snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    /// Monotonically increasing view number.
    pub id: u64,
    /// Member identifiers, deduplicated and sorted.
    members: Vec<u32>,
}

impl View {
    /// Creates view `id` over `members` (sorted, deduplicated).
    pub fn new(id: u64, members: impl IntoIterator<Item = u32>) -> View {
        let mut m: Vec<u32> = members.into_iter().collect();
        m.sort_unstable();
        m.dedup();
        View { id, members: m }
    }

    /// The members, ranked.
    pub(crate) fn members(&self) -> &[u32] {
        &self.members
    }

    /// True if `id` is a member.
    pub(crate) fn contains(&self, id: u32) -> bool {
        self.members.binary_search(&id).is_ok()
    }

    /// The view's sequencer: the lowest-ranked member (the fixed-
    /// sequencer convention; when it fails, the next view's lowest
    /// member takes over automatically).
    pub fn sequencer(&self) -> Option<u32> {
        self.members.first().copied()
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "view#{}{:?}", self.id, self.members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_sorted_and_deduped() {
        let v = View::new(1, [3, 1, 2, 1]);
        assert_eq!(v.members(), &[1, 2, 3]);
    }

    #[test]
    fn sequencer_is_lowest_rank() {
        assert_eq!(View::new(1, [5, 2, 9]).sequencer(), Some(2));
        assert_eq!(View::new(1, []).sequencer(), None);
    }

    #[test]
    fn contains_finds_members() {
        let v = View::new(1, [1, 3, 2]);
        assert!(v.contains(2));
        assert!(!v.contains(9));
    }
}
