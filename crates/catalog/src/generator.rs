//! Seeded synthetic data generators for the benchmark database.
//!
//! The paper ran its Table 1 experiments on "large benchmark data on
//! IBM's DB2"; the concrete data is not published, so we generate a
//! deterministic employee/department/project database in the spirit of
//! the paper's running example (Example 1.1) and of the DB2 sample
//! schema. All randomness is seeded, so every run — tests, examples,
//! benchmarks — sees byte-identical data.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use starmagic_common::{Result, Value};

use crate::catalog::Catalog;
use crate::column::Column;
use crate::schema::{ColumnDef, TableSchema};
use crate::table::Table;

use starmagic_common::DataType::{Double, Int, Str};

/// Scale knobs for the generated database.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Number of departments.
    pub departments: usize,
    /// Employees per department (on average).
    pub emps_per_dept: usize,
    /// Projects per department (on average).
    pub projects_per_dept: usize,
    /// Activity records per employee (on average).
    pub acts_per_emp: usize,
    /// RNG seed; same seed, same database.
    pub seed: u64,
}

impl Scale {
    /// A small database for unit/integration tests (fast, still
    /// exercises every code path).
    pub fn small() -> Scale {
        Scale {
            departments: 20,
            emps_per_dept: 12,
            projects_per_dept: 3,
            acts_per_emp: 2,
            seed: 42,
        }
    }

    /// The default benchmark scale used to regenerate Table 1.
    pub fn benchmark() -> Scale {
        Scale {
            departments: 400,
            emps_per_dept: 50,
            projects_per_dept: 5,
            acts_per_emp: 3,
            seed: 42,
        }
    }

    pub fn total_employees(&self) -> usize {
        self.departments * self.emps_per_dept
    }
}

/// Division names: ten divisions give a ~10% selectivity knob for the
/// mid-selectivity experiments.
const DIVISIONS: [&str; 10] = [
    "Research",
    "Sales",
    "Marketing",
    "Support",
    "Operations",
    "Finance",
    "Legal",
    "Design",
    "Quality",
    "Facilities",
];

/// Build the benchmark catalog:
///
/// * `department(deptno PK, deptname, mgrno, division, budget)`
/// * `employee(empno PK, empname, workdept, salary, bonus, yearhired)`
/// * `project(projno PK, projname, deptno, budget)`
/// * `emp_act(empno, projno, hours)` with key (empno, projno)
///
/// One department is named `'Planning'` (the paper's running example
/// queries it); the rest are `Dept_<n>`. `mgrno` points at an employee
/// of the same department. A few percent of `bonus` values are NULL so
/// that three-valued logic is exercised by realistic queries.
pub fn benchmark_catalog(scale: Scale) -> Result<Catalog> {
    let mut rng = StdRng::seed_from_u64(scale.seed);
    let mut catalog = Catalog::new();

    let n_depts = scale.departments.max(1);
    let n_emps = scale.total_employees().max(1);

    // Employees first, so manager numbers can point at real employees.
    let mut employees = columns(n_emps);
    for empno in 0..n_emps as i64 {
        let workdept = empno % n_depts as i64; // round-robin keeps depts even
        let salary = 30_000.0 + rng.gen_range(0..50_000) as f64;
        let bonus = if rng.gen_ratio(1, 20) {
            Value::Null
        } else {
            Value::Double((rng.gen_range(0..100) * 100) as f64)
        };
        let yearhired = 1970 + rng.gen_range(0..25);
        push(
            &mut employees,
            [
                Value::Int(empno),
                Value::str(format!("Emp_{empno}")),
                Value::Int(workdept),
                Value::Double(salary),
                bonus,
                Value::Int(yearhired),
            ],
        );
    }
    let employees = table(
        TableSchema::new(
            "employee",
            vec![
                ColumnDef::new("empno", Int),
                ColumnDef::new("empname", Str),
                ColumnDef::new("workdept", Int),
                ColumnDef::new("salary", Double),
                ColumnDef::new("bonus", Double),
                ColumnDef::new("yearhired", Int),
            ],
        )
        .with_key(&["empno"])?,
        employees,
    )?;

    let mut departments = columns(n_depts);
    for deptno in 0..n_depts as i64 {
        let deptname = if deptno == 0 {
            "Planning".to_string()
        } else {
            format!("Dept_{deptno}")
        };
        // A manager from this department (first employee in round-robin).
        let mgrno = deptno;
        let division = DIVISIONS[(deptno as usize) % DIVISIONS.len()];
        let budget = 100_000.0 + rng.gen_range(0..900_000) as f64;
        push(
            &mut departments,
            [
                Value::Int(deptno),
                Value::str(deptname),
                Value::Int(mgrno),
                Value::str(division),
                Value::Double(budget),
            ],
        );
    }

    let n_projects = n_depts * scale.projects_per_dept.max(1);
    let mut projects = columns(n_projects);
    for projno in 0..n_projects as i64 {
        let deptno = projno % n_depts as i64;
        let budget = 10_000.0 + rng.gen_range(0..90_000) as f64;
        push(
            &mut projects,
            [
                Value::Int(projno),
                Value::str(format!("Proj_{projno}")),
                Value::Int(deptno),
                Value::Double(budget),
            ],
        );
    }

    let mut acts = columns(n_emps * scale.acts_per_emp);
    for empno in 0..n_emps as i64 {
        let mut chosen = std::collections::HashSet::new();
        for _ in 0..scale.acts_per_emp {
            let projno = rng.gen_range(0..n_projects as i64);
            if chosen.insert(projno) {
                let hours = rng.gen_range(1..40) as f64;
                push(
                    &mut acts,
                    [Value::Int(empno), Value::Int(projno), Value::Double(hours)],
                );
            }
        }
    }

    catalog.add_table(table(
        TableSchema::new(
            "department",
            vec![
                ColumnDef::new("deptno", Int),
                ColumnDef::new("deptname", Str),
                ColumnDef::new("mgrno", Int),
                ColumnDef::new("division", Str),
                ColumnDef::new("budget", Double),
            ],
        )
        .with_key(&["deptno"])?,
        departments,
    )?)?;

    catalog.add_table(employees)?;

    catalog.add_table(table(
        TableSchema::new(
            "project",
            vec![
                ColumnDef::new("projno", Int),
                ColumnDef::new("projname", Str),
                ColumnDef::new("deptno", Int),
                ColumnDef::new("budget", Double),
            ],
        )
        .with_key(&["projno"])?,
        projects,
    )?)?;

    catalog.add_table(table(
        TableSchema::new(
            "emp_act",
            vec![
                ColumnDef::new("empno", Int),
                ColumnDef::new("projno", Int),
                ColumnDef::new("hours", Double),
            ],
        )
        .with_key(&["empno", "projno"])?,
        acts,
    )?)?;

    Ok(catalog)
}

/// Per-column value vectors of one table, each with room for `rows`.
fn columns<const N: usize>(rows: usize) -> [Vec<Value>; N] {
    std::array::from_fn(|_| Vec::with_capacity(rows))
}

/// Append one row's values, each to its column's vector.
fn push<const N: usize>(columns: &mut [Vec<Value>; N], row: [Value; N]) {
    for (column, v) in columns.iter_mut().zip(row) {
        column.push(v);
    }
}

/// The table `schema` describes, over per-column value vectors, each
/// typed by [`Column::from_values`] and freed once converted.
fn table<const N: usize>(schema: TableSchema, columns: [Vec<Value>; N]) -> Result<Table> {
    let columns = columns.map(|values| Column::from_values(&values));
    Table::with_columns(schema, columns.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = benchmark_catalog(Scale::small()).unwrap();
        let b = benchmark_catalog(Scale::small()).unwrap();
        assert_eq!(
            a.table("employee").unwrap().rows(),
            b.table("employee").unwrap().rows()
        );
        assert_eq!(
            a.table("emp_act").unwrap().rows(),
            b.table("emp_act").unwrap().rows()
        );
    }

    #[test]
    fn generated_tables_are_what_their_rows_would_load() {
        let c = benchmark_catalog(Scale::small()).unwrap();
        for name in ["department", "employee", "project", "emp_act"] {
            let t = c.table(name).unwrap();
            let rows = t.rows();
            let arity = t.schema().arity();
            let columns: Vec<Column> = (0..arity).map(|i| Column::from_rows(&rows, i)).collect();
            assert_eq!(
                format!("{:?}", t.columns()),
                format!("{columns:?}"),
                "{name}"
            );
            let stats = crate::stats::TableStats::compute(arity, &rows);
            assert_eq!(format!("{:?}", t.stats()), format!("{stats:?}"), "{name}");
        }
    }

    #[test]
    fn scale_controls_sizes() {
        let c = benchmark_catalog(Scale::small()).unwrap();
        assert_eq!(c.table("department").unwrap().row_count(), 20);
        assert_eq!(c.table("employee").unwrap().row_count(), 240);
        assert_eq!(c.table("project").unwrap().row_count(), 60);
    }

    #[test]
    fn planning_department_exists_once() {
        let c = benchmark_catalog(Scale::small()).unwrap();
        let planning: Vec<_> = c
            .table("department")
            .unwrap()
            .rows()
            .into_iter()
            .filter(|r| r.get(1) == &Value::str("Planning"))
            .collect();
        assert_eq!(planning.len(), 1);
        assert_eq!(planning[0].get(0), &Value::Int(0));
    }

    #[test]
    fn managers_belong_to_their_department() {
        let c = benchmark_catalog(Scale::small()).unwrap();
        let emp = c.table("employee").unwrap();
        for d in c.table("department").unwrap().rows() {
            let deptno = d.get(0);
            let mgrno = d.get(2);
            let mgr = emp
                .rows()
                .into_iter()
                .find(|e| e.get(0) == mgrno)
                .expect("manager exists");
            assert_eq!(mgr.get(2), deptno, "manager works in own department");
        }
    }

    #[test]
    fn some_bonuses_are_null() {
        let c = benchmark_catalog(Scale::small()).unwrap();
        let nulls = c.table("employee").unwrap().stats().columns[4].nulls;
        assert!(nulls > 0, "expected some NULL bonuses, got none");
    }
}

#[cfg(test)]
mod scale_tests {
    use super::*;

    #[test]
    fn different_seeds_give_different_data() {
        let mut a = Scale::small();
        let mut b = Scale::small();
        a.seed = 1;
        b.seed = 2;
        let ca = benchmark_catalog(a).unwrap();
        let cb = benchmark_catalog(b).unwrap();
        assert_ne!(
            ca.table("employee").unwrap().rows(),
            cb.table("employee").unwrap().rows()
        );
    }

    #[test]
    fn benchmark_scale_sizes() {
        let s = Scale::benchmark();
        assert_eq!(s.total_employees(), 20_000);
    }

    #[test]
    fn all_employees_have_valid_departments() {
        let c = benchmark_catalog(Scale::small()).unwrap();
        let n_depts = c.table("department").unwrap().row_count() as i64;
        for e in c.table("employee").unwrap().rows() {
            let Value::Int(d) = e.get(2) else { panic!() };
            assert!(*d >= 0 && *d < n_depts);
        }
    }

    #[test]
    fn projects_reference_valid_departments() {
        let c = benchmark_catalog(Scale::small()).unwrap();
        let n_depts = c.table("department").unwrap().row_count() as i64;
        for p in c.table("project").unwrap().rows() {
            let Value::Int(d) = p.get(2) else { panic!() };
            assert!(*d >= 0 && *d < n_depts);
        }
    }

    #[test]
    fn acts_reference_valid_employees_and_projects() {
        let c = benchmark_catalog(Scale::small()).unwrap();
        let n_emps = c.table("employee").unwrap().row_count() as i64;
        let n_projects = c.table("project").unwrap().row_count() as i64;
        for a in c.table("emp_act").unwrap().rows() {
            let Value::Int(e) = a.get(0) else { panic!() };
            let Value::Int(p) = a.get(1) else { panic!() };
            assert!(*e >= 0 && *e < n_emps);
            assert!(*p >= 0 && *p < n_projects);
        }
    }
}
