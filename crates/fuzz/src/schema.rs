//! A static model of the benchmark catalog the generator draws from.
//!
//! The fuzzer needs to know, for every relation it may put in a FROM
//! clause, the column names, their types, plausible literal ranges
//! (so comparisons are sometimes selective and sometimes vacuous),
//! and which columns are join keys. Keeping this as data — rather
//! than querying the live catalog — keeps generation deterministic
//! and lets the same model describe views, whose schemas the catalog
//! only knows after `CREATE VIEW` runs.

/// Column type as the generator tracks it (the catalog's `Bool` never
/// appears in stored tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    Int,
    Double,
    Str,
}

/// One column of a relation the generator may reference.
#[derive(Debug, Clone, Copy)]
pub struct Col {
    pub name: &'static str,
    pub ty: Ty,
    /// Join-key family: columns holding department numbers, employee
    /// numbers, or project numbers. Equality predicates between
    /// same-family columns give meaningful joins.
    pub family: Option<Family>,
    /// Inclusive literal range hint for `Ty::Int` columns; for
    /// `Ty::Double` the same bounds are used as `f64`.
    pub lo: i64,
    pub hi: i64,
    /// Whether stored data contains NULLs in this column (the
    /// generator biases IS NULL probes toward these).
    pub nullable: bool,
}

/// Join-key families in the benchmark schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Dept,
    Emp,
    Proj,
    /// Graph-node ids of the `edge` table (and of recursive CTEs
    /// computed over it).
    Node,
}

/// A relation (base table or view) the generator may scan.
#[derive(Debug, Clone, Copy)]
pub struct Rel {
    pub name: &'static str,
    pub cols: &'static [Col],
    /// Views get biased toward binding-pattern-friendly shapes (an
    /// equality on the leading key column) so EMST actually fires.
    pub view: bool,
}

const fn col(name: &'static str, ty: Ty, lo: i64, hi: i64) -> Col {
    Col {
        name,
        ty,
        family: None,
        lo,
        hi,
        nullable: false,
    }
}

const fn key(name: &'static str, family: Family, lo: i64, hi: i64) -> Col {
    Col {
        name,
        ty: Ty::Int,
        family: Some(family),
        lo,
        hi,
        nullable: false,
    }
}

const fn nullable(mut c: Col) -> Col {
    c.nullable = true;
    c
}

/// The relations of [`crate::fuzz_engine`]'s catalog: the four
/// benchmark base tables, the `edge` graph the recursive grammar
/// closes over, and the seven shared views. Ranges reflect
/// [`crate::fuzz_scale`] (8 departments, 640 employees + a NULL-rich
/// tail, 16 projects, 12 graph nodes).
pub const RELS: &[Rel] = &[
    Rel {
        name: "department",
        view: false,
        cols: &[
            key("deptno", Family::Dept, 0, 7),
            col("deptname", Ty::Str, 0, 0),
            key("mgrno", Family::Emp, 0, 7),
            col("division", Ty::Str, 0, 0),
            col("budget", Ty::Double, 100_000, 1_000_000),
        ],
    },
    Rel {
        name: "employee",
        view: false,
        cols: &[
            key("empno", Family::Emp, 0, 660),
            col("empname", Ty::Str, 0, 0),
            nullable(key("workdept", Family::Dept, 0, 7)),
            nullable(col("salary", Ty::Double, 30_000, 80_000)),
            nullable(col("bonus", Ty::Double, 0, 10_000)),
            nullable(col("yearhired", Ty::Int, 1970, 1995)),
        ],
    },
    Rel {
        name: "project",
        view: false,
        cols: &[
            key("projno", Family::Proj, 0, 15),
            col("projname", Ty::Str, 0, 0),
            key("deptno", Family::Dept, 0, 7),
            col("budget", Ty::Double, 10_000, 100_000),
        ],
    },
    Rel {
        name: "emp_act",
        view: false,
        cols: &[
            key("empno", Family::Emp, 0, 660),
            key("projno", Family::Proj, 0, 15),
            col("hours", Ty::Double, 1, 40),
        ],
    },
    Rel {
        name: "edge",
        view: false,
        cols: &[
            key("src", Family::Node, 0, 11),
            key("dst", Family::Node, 0, 11),
        ],
    },
    Rel {
        name: "mgrsal",
        view: true,
        cols: &[
            key("empno", Family::Emp, 0, 660),
            col("empname", Ty::Str, 0, 0),
            key("workdept", Family::Dept, 0, 7),
            col("salary", Ty::Double, 30_000, 80_000),
        ],
    },
    Rel {
        name: "avgmgrsal",
        view: true,
        cols: &[
            key("workdept", Family::Dept, 0, 7),
            col("avgsalary", Ty::Double, 30_000, 80_000),
        ],
    },
    Rel {
        name: "deptavgsal",
        view: true,
        cols: &[
            key("workdept", Family::Dept, 0, 7),
            col("avgsal", Ty::Double, 30_000, 80_000),
            col("headcount", Ty::Int, 0, 100),
        ],
    },
    Rel {
        name: "deptacthours",
        view: true,
        cols: &[
            key("deptno", Family::Dept, 0, 7),
            col("total", Ty::Double, 0, 10_000),
        ],
    },
    Rel {
        name: "projcount",
        view: true,
        cols: &[
            key("deptno", Family::Dept, 0, 7),
            col("cnt", Ty::Int, 0, 10),
        ],
    },
    Rel {
        name: "toppay",
        view: true,
        cols: &[
            key("workdept", Family::Dept, 0, 7),
            col("maxsal", Ty::Double, 30_000, 80_000),
        ],
    },
    Rel {
        name: "deptsummary",
        view: true,
        cols: &[
            key("deptno", Family::Dept, 0, 7),
            col("avgsal", Ty::Double, 30_000, 80_000),
            col("maxsal", Ty::Double, 30_000, 80_000),
        ],
    },
];

/// String literals the generator samples (values that do and do not
/// occur in the data, plus an embedded quote to exercise re-escaping).
pub const STRINGS: &[&str] = &[
    "Planning", "Dept_3", "Dept_9", "Emp_5", "Research", "Sales", "Proj_1", "", "it's",
];

/// LIKE patterns: wildcards adjacent to each other, literal `%` in
/// text position, empty and all-wildcard patterns.
pub const PATTERNS: &[&str] = &[
    "%", "%%", "_", "%_", "_%", "%_%", "Dept_%", "Emp__", "%an%", "P%t", "%5", "", "100%",
];
