//! Scalar expression trees.
//!
//! TPC-H aggregates compute expressions like
//! `l_extendedprice * (1 - l_discount) * (1 + l_tax)`; the engine
//! evaluates them columnar-style (one operator over a whole tile) and
//! reports the dpCore operation mix so the cost layer can price the
//! pass. All arithmetic is 64-bit integer (the DPU's fixed-point
//! discipline: money in cents, percentages in points).

use dpu_isa::OpCounts;

use crate::column::Table;

/// A scalar expression over a table's columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A column reference by name.
    Col(String),
    /// An integer literal.
    Lit(i64),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication (prices the dpCore's variable-latency multiplier).
    Mul(Box<Expr>, Box<Expr>),
    /// Integer division.
    ///
    /// Divisors of zero make [`eval`](Expr::eval) panic — the planner is
    /// expected to guard, as the engine's fixed-point discipline demands.
    Div(Box<Expr>, Box<Expr>),
    /// Two-sided clamp (used for saturation semantics).
    Clamp(Box<Expr>, i64, i64),
}

impl Expr {
    /// Column reference.
    pub fn col(name: &str) -> Expr {
        Expr::Col(name.to_string())
    }

    /// Literal.
    pub fn lit(v: i64) -> Expr {
        Expr::Lit(v)
    }

    /// Evaluates over every row, columnar style: each node materializes
    /// its operands' columns and zips them row by row. Arithmetic wraps.
    ///
    /// # Panics
    ///
    /// Panics on missing columns or division by zero (at the first row
    /// whose divisor is zero).
    pub fn eval(&self, table: &Table) -> Vec<i64> {
        let rows = table.rows();
        match self {
            Expr::Col(name) => table.columns[table.col_index(name)].data.clone(),
            Expr::Lit(v) => vec![*v; rows],
            Expr::Add(a, b) => zip(a.eval(table), b.eval(table), |x, y| x.wrapping_add(y)),
            Expr::Sub(a, b) => zip(a.eval(table), b.eval(table), |x, y| x.wrapping_sub(y)),
            Expr::Mul(a, b) => zip(a.eval(table), b.eval(table), |x, y| x.wrapping_mul(y)),
            Expr::Div(a, b) => zip(a.eval(table), b.eval(table), |x, y| {
                assert!(y != 0, "expression division by zero");
                x / y
            }),
            Expr::Clamp(a, lo, hi) => {
                a.eval(table).into_iter().map(|v| v.clamp(*lo, *hi)).collect()
            }
        }
    }

    /// Per-row dpCore operation counts of one evaluation pass.
    pub fn per_row_counts(&self) -> OpCounts {
        let mut c = OpCounts::default();
        self.accumulate(&mut c);
        c
    }

    fn accumulate(&self, c: &mut OpCounts) {
        match self {
            Expr::Col(_) => c.loads += 1,
            Expr::Lit(_) => {} // register-resident
            Expr::Add(a, b) | Expr::Sub(a, b) => {
                a.accumulate(c);
                b.accumulate(c);
                c.alu += 1;
            }
            Expr::Mul(a, b) => {
                a.accumulate(c);
                b.accumulate(c);
                c.mul += 1;
                // Money-range operands keep the iterative multiplier at
                // its ~32-bit latency.
                c.mul_stall_cycles += 8;
            }
            Expr::Div(a, b) => {
                a.accumulate(c);
                b.accumulate(c);
                // Software division on the dpCore: ~20 cycles.
                c.alu += 1;
                c.dependency_stalls += 20;
            }
            Expr::Clamp(a, _, _) => {
                a.accumulate(c);
                c.alu += 2;
            }
        }
    }
}

impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::Div(Box::new(self), Box::new(rhs))
    }
}

fn zip(a: Vec<i64>, b: Vec<i64>, f: impl Fn(i64, i64) -> i64) -> Vec<i64> {
    a.into_iter().zip(b).map(|(x, y)| f(x, y)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use dpu_isa::PipelineModel;

    fn t() -> Table {
        Table::new(vec![
            Column::i32("price", vec![100, 200, 300]),
            Column::i32("disc", vec![10, 0, 50]),
            Column::i32("tax", vec![5, 8, 0]),
        ])
    }

    #[test]
    fn tpch_revenue_expression() {
        // price * (100 - disc) * (100 + tax) — the Q1 shape, in percent
        // points.
        let e = Expr::col("price")
            * (Expr::lit(100) - Expr::col("disc"))
            * (Expr::lit(100) + Expr::col("tax"));
        let got = e.eval(&t());
        assert_eq!(got, vec![100 * 90 * 105, 200 * 100 * 108, 300 * 50 * 100]);
    }

    #[test]
    fn division_and_clamp() {
        let e =
            Expr::Clamp(Box::new(Expr::col("price") / (Expr::col("tax") + Expr::lit(1))), 0, 40);
        assert_eq!(e.eval(&t()), vec![16, 22, 40]);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        (Expr::col("price") / Expr::col("tax")).eval(&t());
    }

    #[test]
    fn op_counts_reflect_tree_shape() {
        let e = Expr::col("price") * (Expr::lit(100) - Expr::col("disc"));
        let c = e.per_row_counts();
        assert_eq!(c.loads, 2, "two column reads");
        assert_eq!(c.alu, 1, "one subtract");
        assert_eq!(c.mul, 1);
        assert!(c.mul_stall_cycles > 0);
        // The dpCore prices the multiplier stall; an OoO core would not.
        let dpu = c.dpcore_cycles(&PipelineModel::default());
        assert!(dpu >= c.mul_stall_cycles);
    }

    #[test]
    fn arithmetic_wraps_on_overflow() {
        let t = Table::new(vec![
            Column::i64("a", vec![i64::MAX, i64::MIN, 7, -3]),
            Column::i64("b", vec![2, -1, i64::MAX, 5]),
        ]);
        let e = Expr::Clamp(
            Box::new(
                (Expr::col("a") * Expr::col("b") + Expr::col("a") - Expr::col("b"))
                    / (Expr::lit(3)),
            ),
            -1_000_000,
            1_000_000,
        );
        let (a, b) = (&t.columns[0].data, &t.columns[1].data);
        let want: Vec<i64> = (0..4)
            .map(|i| {
                let v = a[i].wrapping_mul(b[i]).wrapping_add(a[i]).wrapping_sub(b[i]);
                (v / 3).clamp(-1_000_000, 1_000_000)
            })
            .collect();
        assert_eq!(e.eval(&t), want);
    }

    #[test]
    fn literal_only_expression() {
        let e = Expr::lit(6) * Expr::lit(7);
        assert_eq!(e.eval(&t()), vec![42, 42, 42]);
        assert_eq!(e.per_row_counts().loads, 0);
    }
}
