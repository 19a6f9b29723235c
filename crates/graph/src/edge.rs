//! Edges of mixed graphs.

use crate::endpoint::Mark;
use crate::mixed_graph::NodeId;
use std::fmt;

/// An edge between two nodes together with the marks at both endpoints.
///
/// The mark `near_a` is the mark at node `a`'s end, `near_b` at node `b`'s
/// end.  `A → B` is therefore `{a: A, b: B, near_a: Tail, near_b: Arrow}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// First endpoint node.
    pub a: NodeId,
    /// Second endpoint node.
    pub b: NodeId,
    /// Mark at node `a`.
    pub near_a: Mark,
    /// Mark at node `b`.
    pub near_b: Mark,
}

impl Edge {
    /// Creates an edge.
    pub fn new(a: NodeId, b: NodeId, near_a: Mark, near_b: Mark) -> Self {
        Edge {
            a,
            b,
            near_a,
            near_b,
        }
    }

    /// The mark at `node`'s end, if `node` is an endpoint of this edge.
    pub fn mark_at(&self, node: NodeId) -> Option<Mark> {
        if node == self.a {
            Some(self.near_a)
        } else if node == self.b {
            Some(self.near_b)
        } else {
            None
        }
    }

    /// Returns `true` for `a ↔ b`.
    pub fn is_bidirected(&self) -> bool {
        self.near_a.is_arrow() && self.near_b.is_arrow()
    }

    /// Returns `true` when either endpoint is a circle.
    pub fn has_circle(&self) -> bool {
        self.near_a.is_circle() || self.near_b.is_circle()
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let left = match self.near_a {
            Mark::Tail => "-",
            Mark::Arrow => "<",
            Mark::Circle => "o",
        };
        let right = match self.near_b {
            Mark::Tail => "-",
            Mark::Arrow => ">",
            Mark::Circle => "o",
        };
        write!(f, "{} {}-{} {}", self.a, left, right, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let e = Edge::new(0, 1, Mark::Tail, Mark::Arrow);
        assert!(!e.is_bidirected());
        assert!(Edge::new(0, 1, Mark::Arrow, Mark::Arrow).is_bidirected());
        assert!(Edge::new(0, 1, Mark::Circle, Mark::Circle).has_circle());
    }

    #[test]
    fn mark_at_and_other() {
        let e = Edge::new(3, 7, Mark::Tail, Mark::Arrow);
        assert_eq!(e.mark_at(3), Some(Mark::Tail));
        assert_eq!(e.mark_at(7), Some(Mark::Arrow));
        assert_eq!(e.mark_at(9), None);
    }

    #[test]
    fn display() {
        for (near_a, near_b, text) in [
            (Mark::Tail, Mark::Arrow, "0 --> 1"),
            (Mark::Arrow, Mark::Arrow, "0 <-> 1"),
            (Mark::Circle, Mark::Circle, "0 o-o 1"),
        ] {
            assert_eq!(Edge::new(0, 1, near_a, near_b).to_string(), text);
        }
    }
}
