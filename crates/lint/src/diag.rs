//! Structured lint diagnostics: stable codes, severities, and the
//! report type the passes append to.

use std::fmt;

use starmagic_qgm::{BoxId, QuantId};

/// How bad a finding is. `Error` means the graph violates an invariant
/// the engine relies on for correctness; `Warn` flags hygiene issues
/// (dead weight, staleness) that cannot change query answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warn,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

/// Stable diagnostic codes. L0xx are errors (invariant violations);
/// L1xx are warnings (hygiene). The L2xx block belongs to the
/// `starmagic-analysis` checks: L20x are errors (statically proven
/// rewrite unsoundness), L21x are warnings (estimate/heuristic
/// disagreements). Codes are never renumbered so test suites and docs
/// can reference them, and a retired code's number is never reused:
/// retired are L110 and L211, which explained the removed parallel executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// A box lists a quantifier id that is dead.
    L001DanglingQuant,
    /// A quantifier is listed in a box other than its `parent`.
    L002QuantParentMismatch,
    /// A quantifier ranges over a dead box.
    L003QuantOverDeadBox,
    /// An expression references a dead quantifier.
    L004ExprDeadQuant,
    /// A column offset is out of range for the referenced box.
    L005ColumnOutOfRange,
    /// Box-shape violation: group-by without exactly one Foreach
    /// quantifier, base table with quantifiers, outer join without
    /// exactly two Foreach quantifiers, set-op with a non-Foreach
    /// operand.
    L006BoxShape,
    /// A set-op operand's arity differs from the set-op box's arity.
    L007SetOpArity,
    /// The top box is dead.
    L008DeadTopBox,
    /// A deposited join order references a dead quantifier.
    L009JoinOrderDeadQuant,
    /// Stored stratum numbers violate monotonicity: a box does not sit
    /// strictly above an input from a different SCC (both strata
    /// fresh), or a base table is not at stratum 0.
    L010StratumMonotonicity,
    /// A dependency cycle does not pass through a recursive union's
    /// step quantifier. Only `WITH RECURSIVE` fixpoints may close
    /// cycles: every cycle must thread through a `Recursive`-flavored
    /// union box, entering via the quantifier of one of its step arms.
    L011RecursiveCycleShape,
    /// An adornment's length differs from its box's output arity.
    L020AdornmentArity,
    /// A magic link targets a dead box.
    L021MagicLinkDead,
    /// A magic link sits on the wrong kind of box: on a magic-flavored
    /// box (EMST never links into its own magic boxes) or on a box
    /// without an adornment (links belong on adorned EMST copies).
    L022MisplacedMagicLink,
    /// A magic-flavored box permits duplicates. Magic tables must be
    /// duplicate-free (`Enforce`, or `Preserve` once proven).
    L023MagicDuplicates,
    /// A GROUP BY box on a dependency cycle carries a Bound adornment.
    /// The aggregate exemption: the magic transformation must never
    /// push bindings into an aggregate participating in recursion (the
    /// bound subset could see partial groups and aggregate wrongly).
    L024RecursiveAggregateAdorned,
    /// A box claims `DistinctMode::Preserve` but its output is not
    /// provably duplicate-free without that claim.
    L030UnprovableDistinctClaim,
    /// An existential/universal quantifier is referenced outside
    /// predicates (projected in an output column, group key, or
    /// aggregate argument).
    L040SubqueryQuantProjected,
    /// A quantified subquery test ranges over a Foreach or Scalar
    /// quantifier instead of an existential/universal one.
    L041QuantifiedOverForeach,
    /// A live box is unreachable from the top box (even counting magic
    /// links as edges).
    L100UnreachableBox,
    /// A live quantifier is not listed by its parent box (or its
    /// parent is dead).
    L101OrphanQuant,
    /// An output column of an interior box is referenced by no
    /// expression anywhere in the graph.
    L102UnusedOutputColumn,
    /// A deposited join order contains a live quantifier that belongs
    /// to another box or is not Foreach (the accessor drops it).
    L103JoinOrderForeignQuant,
    /// A box's stored stratum differs from the recomputed value
    /// (strata are assigned at build time and go stale as rewrites
    /// restructure the graph).
    L104StaleStratum,
    /// A predicate references a magic Foreach quantifier but is not
    /// null-strict in it: a NULL binding could satisfy the predicate,
    /// so the magic restriction may drop rows the original query
    /// returned (the EMST decorrelation gate, re-proven statically on
    /// the rewritten graph by `starmagic-analysis`).
    L200NullStrictnessViolation,
    /// A duplicate-freedom claim (`DistinctMode::Preserve`) is refuted
    /// by the multiplicity domain: the box provably emits two or more
    /// identical rows.
    L201DuplicateClaimRefuted,
    /// Binding-flow violation: a magic binding column is never
    /// consumed by the box joining it, or a declared Bound adornment
    /// column cannot be traced to a magic binding.
    L202BindingFlowUnsound,
    /// The planner's row estimate for a box falls outside the
    /// multiplicity bounds the analysis proved.
    L210CardinalityOutsideBounds,
}

impl Code {
    /// Every code, for the reference table and exhaustiveness tests.
    pub const ALL: &'static [Code] = &[
        Code::L001DanglingQuant,
        Code::L002QuantParentMismatch,
        Code::L003QuantOverDeadBox,
        Code::L004ExprDeadQuant,
        Code::L005ColumnOutOfRange,
        Code::L006BoxShape,
        Code::L007SetOpArity,
        Code::L008DeadTopBox,
        Code::L009JoinOrderDeadQuant,
        Code::L010StratumMonotonicity,
        Code::L011RecursiveCycleShape,
        Code::L020AdornmentArity,
        Code::L021MagicLinkDead,
        Code::L022MisplacedMagicLink,
        Code::L023MagicDuplicates,
        Code::L024RecursiveAggregateAdorned,
        Code::L030UnprovableDistinctClaim,
        Code::L040SubqueryQuantProjected,
        Code::L041QuantifiedOverForeach,
        Code::L100UnreachableBox,
        Code::L101OrphanQuant,
        Code::L102UnusedOutputColumn,
        Code::L103JoinOrderForeignQuant,
        Code::L104StaleStratum,
        Code::L200NullStrictnessViolation,
        Code::L201DuplicateClaimRefuted,
        Code::L202BindingFlowUnsound,
        Code::L210CardinalityOutsideBounds,
    ];

    /// The stable "Lnnn" tag.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::L001DanglingQuant => "L001",
            Code::L002QuantParentMismatch => "L002",
            Code::L003QuantOverDeadBox => "L003",
            Code::L004ExprDeadQuant => "L004",
            Code::L005ColumnOutOfRange => "L005",
            Code::L006BoxShape => "L006",
            Code::L007SetOpArity => "L007",
            Code::L008DeadTopBox => "L008",
            Code::L009JoinOrderDeadQuant => "L009",
            Code::L010StratumMonotonicity => "L010",
            Code::L011RecursiveCycleShape => "L011",
            Code::L020AdornmentArity => "L020",
            Code::L021MagicLinkDead => "L021",
            Code::L022MisplacedMagicLink => "L022",
            Code::L023MagicDuplicates => "L023",
            Code::L024RecursiveAggregateAdorned => "L024",
            Code::L030UnprovableDistinctClaim => "L030",
            Code::L040SubqueryQuantProjected => "L040",
            Code::L041QuantifiedOverForeach => "L041",
            Code::L100UnreachableBox => "L100",
            Code::L101OrphanQuant => "L101",
            Code::L102UnusedOutputColumn => "L102",
            Code::L103JoinOrderForeignQuant => "L103",
            Code::L104StaleStratum => "L104",
            Code::L200NullStrictnessViolation => "L200",
            Code::L201DuplicateClaimRefuted => "L201",
            Code::L202BindingFlowUnsound => "L202",
            Code::L210CardinalityOutsideBounds => "L210",
        }
    }

    /// L0xx and L20x codes are errors; L1xx and L21x codes are
    /// warnings.
    pub fn severity(self) -> Severity {
        match self {
            Code::L100UnreachableBox
            | Code::L101OrphanQuant
            | Code::L102UnusedOutputColumn
            | Code::L103JoinOrderForeignQuant
            | Code::L104StaleStratum
            | Code::L210CardinalityOutsideBounds => Severity::Warn,
            _ => Severity::Error,
        }
    }

    /// One-line summary of what the code flags.
    pub fn summary(self) -> &'static str {
        match self {
            Code::L001DanglingQuant => "box lists a dead quantifier",
            Code::L002QuantParentMismatch => "quantifier listed outside its parent box",
            Code::L003QuantOverDeadBox => "quantifier ranges over a dead box",
            Code::L004ExprDeadQuant => "expression references a dead quantifier",
            Code::L005ColumnOutOfRange => "column offset out of range",
            Code::L006BoxShape => "box-shape violation (quantifier count/kind)",
            Code::L007SetOpArity => "set-op operand arity mismatch",
            Code::L008DeadTopBox => "top box is dead",
            Code::L009JoinOrderDeadQuant => "join order references a dead quantifier",
            Code::L010StratumMonotonicity => "stratum not strictly above an input's",
            Code::L011RecursiveCycleShape => "cycle avoids every recursive union's step quantifier",
            Code::L020AdornmentArity => "adornment length differs from box arity",
            Code::L021MagicLinkDead => "magic link targets a dead box",
            Code::L022MisplacedMagicLink => "magic link on a non-adorned or magic box",
            Code::L023MagicDuplicates => "magic box permits duplicates",
            Code::L024RecursiveAggregateAdorned => "GROUP BY on a cycle carries a Bound adornment",
            Code::L030UnprovableDistinctClaim => "Preserve claim not provable",
            Code::L040SubqueryQuantProjected => "subquery quantifier projected",
            Code::L041QuantifiedOverForeach => "quantified test over a Foreach/Scalar quant",
            Code::L100UnreachableBox => "box unreachable from the top",
            Code::L101OrphanQuant => "quantifier not listed by its parent",
            Code::L102UnusedOutputColumn => "output column never referenced",
            Code::L103JoinOrderForeignQuant => "join order entry foreign or non-Foreach",
            Code::L104StaleStratum => "stored stratum differs from recomputed",
            Code::L200NullStrictnessViolation => "magic predicate not null-strict",
            Code::L201DuplicateClaimRefuted => "Preserve claim refuted by multiplicity bounds",
            Code::L202BindingFlowUnsound => "magic binding unconsumed or Bound column untraced",
            Code::L210CardinalityOutsideBounds => "planner estimate outside proven bounds",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a code, the offending graph element, and a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: Code,
    /// The box the finding is anchored at, when there is one.
    pub box_id: Option<BoxId>,
    /// The offending quantifier, when there is one.
    pub quant: Option<QuantId>,
    pub message: String,
}

impl Diagnostic {
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.code, self.severity())?;
        if let Some(b) = self.box_id {
            write!(f, " {b}")?;
        }
        if let Some(q) = self.quant {
            write!(f, " {q}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The outcome of a lint run: every finding from every pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Record a finding.
    pub fn push(
        &mut self,
        code: Code,
        box_id: Option<BoxId>,
        quant: Option<QuantId>,
        message: impl Into<String>,
    ) {
        self.diagnostics.push(Diagnostic {
            code,
            box_id,
            quant,
            message: message.into(),
        });
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }

    /// The warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warn)
    }

    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// First finding with the given code, for tests.
    pub fn find(&self, code: Code) -> Option<&Diagnostic> {
        self.diagnostics.iter().find(|d| d.code == code)
    }

    /// Append every finding of another report (used to merge the
    /// analysis checks into a lint run).
    pub fn extend(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return writeln!(f, "lint: clean");
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        let errors = self.errors().count();
        let warns = self.warnings().count();
        writeln!(f, "lint: {errors} error(s), {warns} warning(s)")
    }
}
