//! CPLEX LP-format export.
//!
//! Writing a model in the standard LP text format lets it be inspected by
//! hand or cross-checked with an external solver — fitting for a crate
//! whose whole purpose is standing in for CPLEX.

use crate::model::{Model, Rel, Sense, VarKind};
use std::fmt::Write as _;

impl Model {
    /// Renders the model in CPLEX LP format.
    ///
    /// Variable names come from [`Variable::with_name`](crate::Variable::with_name)
    /// (sanitized to LP-legal characters) or default to `x<index>`; name
    /// collisions fall back to the indexed form.
    ///
    /// # Examples
    ///
    /// ```
    /// use rtr_milp::{Model, Variable, Constraint, LinExpr, Rel};
    /// let mut m = Model::new();
    /// let x = m.add_var(Variable::binary().with_name("x"));
    /// m.add_constraint(Constraint::new(LinExpr::new() + (2.0, x), Rel::Le, 1.0));
    /// m.maximize(LinExpr::new() + (1.0, x));
    /// let lp = m.to_lp_format();
    /// assert!(lp.starts_with("Maximize"));
    /// assert!(lp.contains("Binary"));
    /// assert!(lp.trim_end().ends_with("End"));
    /// ```
    pub fn to_lp_format(&self) -> String {
        let names = self.lp_names();
        let mut out = String::new();
        out.push_str(match self.sense {
            Sense::Minimize => "Minimize\n",
            Sense::Maximize => "Maximize\n",
        });
        out.push_str(" obj:");
        let obj = self.objective.normalized();
        if obj.is_empty() {
            out.push_str(" 0 "); // LP format needs at least one term
            out.push_str(&names[0]);
        } else {
            write_terms(&mut out, &obj, &names);
        }
        out.push('\n');

        out.push_str("Subject To\n");
        for (i, c) in self.constraints.iter().enumerate() {
            let label = sanitize(c.name().unwrap_or(""), &format!("c{i}"));
            let _ = write!(out, " {label}:");
            let terms = c.expr().normalized();
            if terms.is_empty() {
                // Degenerate row: encode as 0 * x0 so the file stays legal.
                let _ = write!(out, " 0 {}", names[0]);
            } else {
                write_terms(&mut out, &terms, &names);
            }
            let op = match c.rel() {
                Rel::Le => "<=",
                Rel::Ge => ">=",
                Rel::Eq => "=",
            };
            let _ = writeln!(out, " {op} {}", fmt_num(c.rhs()));
        }

        out.push_str("Bounds\n");
        for (j, v) in self.vars.iter().enumerate() {
            let name = &names[j];
            let (lo, hi) = (v.lower(), v.upper());
            match (lo.is_finite(), hi.is_finite()) {
                (true, true) => {
                    let _ = writeln!(out, " {} <= {name} <= {}", fmt_num(lo), fmt_num(hi));
                }
                (true, false) => {
                    let _ = writeln!(out, " {name} >= {}", fmt_num(lo));
                }
                (false, true) => {
                    let _ = writeln!(out, " {name} <= {}", fmt_num(hi));
                }
                (false, false) => {
                    let _ = writeln!(out, " {name} free");
                }
            }
        }

        let generals: Vec<&str> = self
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind() == VarKind::Integer)
            .map(|(j, _)| names[j].as_str())
            .collect();
        if !generals.is_empty() {
            out.push_str("General\n");
            for n in generals {
                let _ = writeln!(out, " {n}");
            }
        }
        let binaries: Vec<&str> = self
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind() == VarKind::Binary)
            .map(|(j, _)| names[j].as_str())
            .collect();
        if !binaries.is_empty() {
            out.push_str("Binary\n");
            for n in binaries {
                let _ = writeln!(out, " {n}");
            }
        }
        out.push_str("End\n");
        out
    }

    fn lp_names(&self) -> Vec<String> {
        let mut seen = std::collections::HashSet::new();
        self.vars
            .iter()
            .enumerate()
            .map(|(j, v)| {
                let candidate = sanitize(v.name().unwrap_or(""), &format!("x{j}"));
                if seen.insert(candidate.clone()) {
                    candidate
                } else {
                    let fallback = format!("x{j}");
                    seen.insert(fallback.clone());
                    fallback
                }
            })
            .collect()
    }
}

fn write_terms(out: &mut String, terms: &[(crate::VarId, f64)], names: &[String]) {
    for (k, (v, c)) in terms.iter().enumerate() {
        let sign = if *c < 0.0 {
            " - "
        } else if k == 0 {
            " "
        } else {
            " + "
        };
        let _ = write!(out, "{sign}{} {}", fmt_num(c.abs()), names[v.index()]);
    }
}

fn fmt_num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// LP names must start with a letter and avoid operators; invalid or empty
/// names fall back to `fallback`.
fn sanitize(name: &str, fallback: &str) -> String {
    let cleaned: String =
        name.chars()
            .map(|ch| {
                if ch.is_ascii_alphanumeric() || "_!#$%&(),.;?@{}~'`".contains(ch) {
                    ch
                } else {
                    '_'
                }
            })
            .collect();
    if cleaned.is_empty() || !cleaned.chars().next().is_some_and(|c| c.is_ascii_alphabetic()) {
        fallback.to_owned()
    } else {
        cleaned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Constraint, LinExpr, Variable};

    #[test]
    fn full_file_structure() {
        let mut m = Model::new();
        let x = m.add_var(Variable::binary().with_name("pick"));
        let y = m.add_var(Variable::integer(0.0, 9.0));
        let z = m.add_var(Variable::free());
        m.add_constraint(
            Constraint::new(LinExpr::new() + (1.5, x) + (-2.0, y), Rel::Le, 4.0).with_name("cap"),
        );
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, z), Rel::Eq, 0.5));
        m.minimize(LinExpr::new() + (3.0, x) + (1.0, z));
        let lp = m.to_lp_format();
        assert!(lp.starts_with("Minimize\n obj: 3 pick + 1 x2\n"));
        assert!(lp.contains(" cap: 1.5 pick - 2 x1 <= 4\n"));
        assert!(lp.contains(" c1: 1 x2 = 0.5\n"));
        assert!(lp.contains(" 0 <= pick <= 1\n"));
        assert!(lp.contains(" 0 <= x1 <= 9\n"));
        assert!(lp.contains(" x2 free\n"));
        assert!(lp.contains("General\n x1\n"));
        assert!(lp.contains("Binary\n pick\n"));
        assert!(lp.trim_end().ends_with("End"));
    }

    #[test]
    fn empty_objective_and_duplicate_names() {
        let mut m = Model::new();
        let _a = m.add_var(Variable::binary().with_name("dup"));
        let _b = m.add_var(Variable::binary().with_name("dup"));
        let lp = m.to_lp_format();
        // Second `dup` falls back to an indexed name.
        assert!(lp.contains("Binary\n dup\n x1\n"), "{lp}");
        assert!(lp.contains(" obj: 0 dup"));
    }

    #[test]
    fn sanitization() {
        assert_eq!(sanitize("y p1 t2", "f"), "y_p1_t2");
        assert_eq!(sanitize("", "f"), "f");
        assert_eq!(sanitize("0start", "f"), "f");
        assert_eq!(sanitize("a<=b", "f"), "a__b");
    }

    #[test]
    fn cut_pool_rows_export() {
        // A model augmented with cut-pool rows exports them under their
        // `cut_*` names (cut rows are ordinary rows to the format layer).
        let mut m = Model::new();
        let a = m.add_var(Variable::binary().with_name("a"));
        let b = m.add_var(Variable::binary().with_name("b"));
        let c = m.add_var(Variable::binary().with_name("c"));
        m.add_constraint(
            Constraint::new(LinExpr::new() + (5.0, a) + (6.0, b) + (4.0, c), Rel::Le, 10.0)
                .with_name("area"),
        );
        m.maximize(LinExpr::new() + (10.0, a) + (13.0, b) + (7.0, c));

        let cover = crate::cuts::Cut {
            name: "cut_cover_0".to_string(),
            terms: vec![(0, 1.0), (1, 1.0)],
            rel: Rel::Le,
            rhs: 1.0,
            age: 0,
        };
        let gomory = crate::cuts::Cut {
            name: "cut_gomory_1".to_string(),
            terms: vec![(0, 0.5), (2, 1.0)],
            rel: Rel::Ge,
            rhs: 0.5,
            age: 0,
        };
        let mut aug = m.clone();
        aug.add_constraint(cover.to_constraint());
        aug.add_constraint(gomory.to_constraint());

        let lp = aug.to_lp_format();
        assert!(lp.contains(" cut_cover_0: 1 a + 1 b <= 1\n"), "{lp}");
        assert!(lp.contains(" cut_gomory_1: 0.5 a + 1 c >= 0.5\n"), "{lp}");
    }

    #[test]
    fn partitioning_model_exports() {
        // The real ILP from rtr-core should produce a well-formed file; here
        // we check a representative structural subset built directly.
        let mut m = Model::new();
        let vars: Vec<_> = (0..6)
            .map(|i| m.add_var(Variable::binary().with_name(format!("y_p{}_t{}", i / 3, i % 3))))
            .collect();
        for t in 0..3 {
            m.add_constraint(
                Constraint::new(LinExpr::new() + (1.0, vars[t]) + (1.0, vars[t + 3]), Rel::Eq, 1.0)
                    .with_name(format!("unique_t{t}")),
            );
        }
        let lp = m.to_lp_format();
        assert_eq!(lp.matches("unique_t").count(), 3);
        // terms + bounds + binary section + the zero-objective placeholder.
        assert_eq!(lp.matches("y_p").count(), 6 + 6 + 6 + 1);
    }
}
