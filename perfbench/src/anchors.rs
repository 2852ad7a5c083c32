//! Paper anchors: the tracked figure rows each simulated-clock metric
//! is checked against, read from the CSVs under `results/`.

/// One row of a tracked results CSV, picked by column values.
pub struct Anchor {
    /// CSV path relative to the repository root.
    pub file: &'static str,
    /// `(column, value)` pairs the row must match; `eps` is compared
    /// numerically.
    pub key: &'static [(&'static str, &'static str)],
    /// Allowed relative deviation of the benchmark's values.
    pub tolerance: f64,
    /// Why the workload may legitimately differ from the row.
    pub caveat: &'static str,
}

/// `exec` and `total+mem` in ns per point, as the row records them.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct AnchorRow {
    pub exec_ns: f64,
    pub total_mem_ns: f64,
}

impl Anchor {
    pub fn describe(&self) -> String {
        let key: Vec<String> = self.key.iter().map(|(c, v)| format!("{c}={v}")).collect();
        format!("{} [{}]", self.file, key.join(" "))
    }

    /// Find the row in `text` (the CSV's contents).
    pub fn find(&self, text: &str) -> Option<AnchorRow> {
        let mut lines = text.lines();
        let header: Vec<&str> = lines.next()?.split(',').collect();
        let col = |name: &str| header.iter().position(|h| *h == name);
        let (exec, total_mem) = (col("exec_ns")?, col("total_mem_ns")?);
        let key: Vec<(usize, &str, &str)> = self
            .key
            .iter()
            .map(|&(c, v)| col(c).map(|i| (i, c, v)))
            .collect::<Option<_>>()?;
        lines.map(|l| l.split(',').collect::<Vec<_>>()).find_map(|row| {
            let matches = key.iter().all(|&(i, c, v)| match row.get(i) {
                Some(cell) if c == "eps" => {
                    matches!((cell.parse::<f64>(), v.parse::<f64>()), (Ok(a), Ok(b)) if (a - b).abs() <= 1e-9 * b.abs())
                }
                Some(cell) => *cell == v,
                None => false,
            });
            if !matches {
                return None;
            }
            Some(AnchorRow {
                exec_ns: row.get(exec)?.parse().ok()?,
                total_mem_ns: row.get(total_mem)?.parse().ok()?,
            })
        })
    }

    /// Compare measured ns/pt values with the row; one report line.
    pub fn check(&self, measured: AnchorRow) -> String {
        let Some(row) = std::fs::read_to_string(self.file)
            .ok()
            .and_then(|t| self.find(&t))
        else {
            return format!("anchor {}: row not found", self.describe());
        };
        let dev = |got: f64, want: f64| (got - want) / want;
        let (de, dt) = (
            dev(measured.exec_ns, row.exec_ns),
            dev(measured.total_mem_ns, row.total_mem_ns),
        );
        let verdict = if de.abs() <= self.tolerance && dt.abs() <= self.tolerance {
            "match"
        } else {
            "MISMATCH"
        };
        format!(
            "anchor {}: exec {:.3} vs {:.3} ns/pt ({:+.1}%), total+mem {:.3} vs {:.3} ns/pt ({:+.1}%): {verdict} within {:.0}%; {}",
            self.describe(),
            measured.exec_ns,
            row.exec_ns,
            100.0 * de,
            measured.total_mem_ns,
            row.total_mem_ns,
            100.0 * dt,
            100.0 * self.tolerance,
            self.caveat
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CSV: &str = "dim,type,eps,lib,method,err,exec_ns,total_ns,total_mem_ns\n\
        3,type2,0.0001,cufinufft,GM-sort,1.3e-4,0.780,0.875,7.682\n\
        3,type2,0.000001,cufinufft,GM-sort,1.4e-6,1.573,1.668,8.475\n\
        3,type2,0.000001,cunfft,GM,5.2e-8,24.122,24.122,30.929\n";

    #[test]
    fn finds_the_row_by_key_with_numeric_eps() {
        let a = Anchor {
            file: "unused.csv",
            key: &[
                ("dim", "3"),
                ("type", "type2"),
                ("eps", "1e-6"),
                ("lib", "cufinufft"),
            ],
            tolerance: 0.02,
            caveat: "",
        };
        assert_eq!(
            a.find(CSV),
            Some(AnchorRow {
                exec_ns: 1.573,
                total_mem_ns: 8.475
            })
        );
        let missing = Anchor {
            key: &[("dim", "2")],
            ..a
        };
        assert_eq!(missing.find(CSV), None);
    }
}
