//! Abstract domains: the lattices the fixpoint engine evaluates.
//!
//! Every domain errs toward its top element — a claim the analysis
//! makes (`NotNull`, a finite `hi`, a restricted column) is a proof
//! obligation the executor's output must honor, so transfer functions
//! only strengthen a fact when the semantics guarantee it.

use std::fmt;

use starmagic_qgm::{BoxId, ColSet};

/// Three-valued-logic nullability of one output column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Nullability {
    /// No value observed yet (fixpoint bottom).
    Bottom,
    /// Every row carries a non-NULL value in this column.
    NotNull,
    /// Every row carries NULL in this column.
    Null,
    /// Unknown — the sound default.
    MaybeNull,
}

impl Nullability {
    /// Least upper bound: `Bottom` is the identity; `NotNull` and
    /// `Null` are incomparable and join to `MaybeNull`.
    pub fn join(self, other: Nullability) -> Nullability {
        use Nullability::{Bottom, MaybeNull};
        match (self, other) {
            (Bottom, x) | (x, Bottom) => x,
            (a, b) if a == b => a,
            _ => MaybeNull,
        }
    }

    /// One-character rendering for the per-box null mask.
    pub fn glyph(self) -> char {
        match self {
            Nullability::Bottom => '_',
            Nullability::NotNull => 'N',
            Nullability::Null => '0',
            Nullability::MaybeNull => '?',
        }
    }
}

impl fmt::Display for Nullability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.glyph())
    }
}

/// Multiplicity bounds: the box produces between `lo` and `hi` rows
/// per evaluation (`hi == None` = unbounded). For a correlated box
/// the bounds are per outer binding, matching how the executor (and
/// the planner's estimates) count rows per evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Card {
    pub lo: u64,
    pub hi: Option<u64>,
}

impl Card {
    /// The unconstrained interval `[0, ∞)`.
    pub fn top() -> Card {
        Card { lo: 0, hi: None }
    }

    /// Exactly `n` rows.
    pub fn exact(n: u64) -> Card {
        Card { lo: n, hi: Some(n) }
    }

    /// Interval union (the fixpoint join).
    pub fn join(self, other: Card) -> Card {
        Card {
            lo: self.lo.min(other.lo),
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }

    /// Bounds of a cross product.
    pub fn cross(self, other: Card) -> Card {
        Card {
            lo: self.lo.saturating_mul(other.lo),
            hi: match (self.hi, other.hi) {
                // 0 × anything = 0, even 0 × ∞.
                (Some(0), _) | (_, Some(0)) => Some(0),
                (Some(a), Some(b)) => Some(a.saturating_mul(b)),
                _ => None,
            },
        }
    }

    /// Bounds of a disjoint union (UNION ALL arms).
    pub fn plus(self, other: Card) -> Card {
        Card {
            lo: self.lo.saturating_add(other.lo),
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.saturating_add(b)),
                _ => None,
            },
        }
    }

    /// After duplicate elimination a non-empty output stays non-empty
    /// but may collapse to one row: only the lower bound weakens.
    pub fn dedup(self) -> Card {
        Card {
            lo: self.lo.min(1),
            hi: self.hi,
        }
    }

    /// Cap the upper bound (key-based refinements).
    pub fn cap(self, max: u64) -> Card {
        Card {
            lo: self.lo,
            hi: Some(self.hi.map_or(max, |h| h.min(max))),
        }
    }

    /// Restore `lo <= hi` after refinements (refinements trust `hi`).
    pub fn clamp(self) -> Card {
        match self.hi {
            Some(h) => Card {
                lo: self.lo.min(h),
                hi: self.hi,
            },
            None => self,
        }
    }

    /// Whether an observed row count is inside the bounds.
    pub fn contains(self, n: u64) -> bool {
        n >= self.lo && self.hi.map_or(true, |h| n <= h)
    }
}

impl fmt::Display for Card {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.hi {
            Some(h) => write!(f, "[{},{}]", self.lo, h),
            None => write!(f, "[{},∞)", self.lo),
        }
    }
}

/// The multiplicity domain's verdict on a box's duplicate-freedom,
/// cross-checked against `keys::is_dup_free` by check L201.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DupVerdict {
    /// A candidate key proves duplicate-freedom (what L030 uses).
    ProvenKeys,
    /// `hi <= 1`: the bounds prove it even without a key.
    ProvenBounds,
    /// At least two provably identical rows: any duplicate-freedom
    /// claim on this box is wrong.
    Refuted,
    Unknown,
}

impl DupVerdict {
    pub fn label(self) -> &'static str {
        match self {
            DupVerdict::ProvenKeys => "keys",
            DupVerdict::ProvenBounds => "bounds",
            DupVerdict::Refuted => "REFUTED",
            DupVerdict::Unknown => "-",
        }
    }
}

/// Everything the analysis proved about one box's output.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxFacts {
    /// Row-multiplicity bounds per evaluation.
    pub card: Card,
    /// Per-output-column nullability.
    pub nullability: Vec<Nullability>,
    /// Candidate keys of the output (key inference's; offsets of
    /// output columns, empty set = at most one row).
    pub keys: Vec<ColSet>,
    /// Output columns provably constant across the box's output (key
    /// inference's `KeyTable::const_outputs`) — the FD refinement that
    /// lets the multiplicity domain cap keyed outputs.
    pub const_cols: ColSet,
    /// Binding-flow domain: output columns provably restricted to
    /// values drawn from a magic box's bindings.
    pub restricted: ColSet,
    /// Duplicate-freedom verdict.
    pub dup_free: DupVerdict,
}

impl BoxFacts {
    /// The sound know-nothing element for a box of the given arity.
    pub fn conservative(arity: usize) -> BoxFacts {
        BoxFacts {
            card: Card::top(),
            nullability: vec![Nullability::MaybeNull; arity],
            keys: Vec::new(),
            const_cols: ColSet::new(),
            restricted: ColSet::new(),
            dup_free: DupVerdict::Unknown,
        }
    }

    /// Compact one-line null mask, e.g. `N?0N`.
    pub fn null_mask(&self) -> String {
        self.nullability.iter().map(|n| n.glyph()).collect()
    }
}

/// The facts of every solved box, indexed by `BoxId::index`.
#[derive(Debug, Clone, Default)]
pub struct FactTable {
    slots: Vec<Option<BoxFacts>>,
}

impl FactTable {
    /// An empty table for box ids below `slots`.
    pub(crate) fn with_slots(slots: usize) -> FactTable {
        FactTable {
            slots: vec![None; slots],
        }
    }

    pub fn get(&self, b: BoxId) -> Option<&BoxFacts> {
        self.slots.get(b.index())?.as_ref()
    }

    pub(crate) fn set(&mut self, b: BoxId, facts: BoxFacts) {
        self.slots[b.index()] = Some(facts);
    }

    /// Every solved box with its facts, in `BoxId` order.
    pub fn iter(&self) -> impl Iterator<Item = (BoxId, &BoxFacts)> {
        self.slots.iter().enumerate().filter_map(|(i, f)| {
            let id = u32::try_from(i).expect("box ids are u32");
            f.as_ref().map(|f| (BoxId(id), f))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nullability_join_lattice() {
        use Nullability::{Bottom, MaybeNull, NotNull, Null};
        assert_eq!(Bottom.join(NotNull), NotNull);
        assert_eq!(NotNull.join(Bottom), NotNull);
        assert_eq!(NotNull.join(NotNull), NotNull);
        assert_eq!(Null.join(Null), Null);
        assert_eq!(NotNull.join(Null), MaybeNull);
        assert_eq!(MaybeNull.join(NotNull), MaybeNull);
    }

    #[test]
    fn card_arithmetic() {
        let a = Card { lo: 2, hi: Some(5) };
        let b = Card { lo: 0, hi: Some(3) };
        assert_eq!(
            a.cross(b),
            Card {
                lo: 0,
                hi: Some(15)
            }
        );
        assert_eq!(a.plus(b), Card { lo: 2, hi: Some(8) });
        assert_eq!(a.join(b), Card { lo: 0, hi: Some(5) });
        let inf = Card::top();
        assert_eq!(a.cross(inf), Card { lo: 0, hi: None });
        assert_eq!(Card::exact(0).cross(inf), Card::exact(0));
        assert_eq!(a.dedup(), Card { lo: 1, hi: Some(5) });
        assert_eq!(a.cap(1), Card { lo: 2, hi: Some(1) });
        assert_eq!(a.cap(1).clamp(), Card::exact(1));
        assert!(a.contains(5));
        assert!(!a.contains(6));
        assert!(inf.contains(u64::MAX));
    }

    #[test]
    fn card_display() {
        assert_eq!(Card::exact(3).to_string(), "[3,3]");
        assert_eq!(Card::top().to_string(), "[0,∞)");
    }
}
