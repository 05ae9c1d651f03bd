//! Output checks: the digest of every simulated result, and the
//! reference jobs compared against the committed `results/` artifacts.

use crate::jobs::{Job, Reference};
use std::path::Path;

/// FNV-1a over the bit patterns of a pass's results, in job order. A
/// failed job contributes a marker that no finite result has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn of(values: &[Option<f64>]) -> Digest {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in values {
            let bits = v.map_or(u64::MAX, f64::to_bits);
            for b in bits.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        Digest(h)
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The committed artifacts the reference jobs reproduce.
pub struct Artifacts {
    fig4: String,
    table7: String,
    fig10: String,
}

impl Artifacts {
    /// Read `fig4.csv`, `table7.csv` and `fig10.csv` from `dir`.
    pub fn load(dir: &Path) -> Result<Artifacts, String> {
        let read = |name: &str| {
            let p = dir.join(name);
            std::fs::read_to_string(&p).map_err(|e| format!("cannot read {}: {e}", p.display()))
        };
        Ok(Artifacts {
            fig4: read("fig4.csv")?,
            table7: read("table7.csv")?,
            fig10: read("fig10.csv")?,
        })
    }
}

/// The `y` cell of the point `(series, x)` in a figure CSV (`series,x,y`).
fn figure_cell(body: &str, series: &str, x: u64) -> Option<String> {
    let x = x.to_string();
    body.lines().skip(1).find_map(|line| {
        let mut it = line.rsplitn(3, ',');
        let (y, lx, label) = (it.next()?, it.next()?, it.next()?);
        (label == series && lx == x).then(|| y.to_string())
    })
}

/// The cell at `row` × `col` of a table CSV. Row labels may contain
/// commas, so cells are split off from the right.
fn table_cell(body: &str, row: &str, col: &str) -> Option<String> {
    let mut lines = body.lines();
    let header: Vec<&str> = lines.next()?.split(',').collect();
    let c = header.iter().skip(1).position(|h| *h == col)?;
    let ncells = header.len() - 1;
    lines.find_map(|line| {
        let mut parts: Vec<&str> = line.rsplitn(ncells + 1, ',').collect();
        parts.reverse();
        (parts.len() == ncells + 1 && parts[0] == row).then(|| parts[1 + c].to_string())
    })
}

/// A simulated result is usable when it is finite and positive.
pub fn plausible(v: f64) -> bool {
    v.is_finite() && v > 0.0
}

/// Compare the reference jobs of one pass with the artifacts. Returns
/// the index and reason of every job that fails; a line per check goes
/// to `log`.
pub fn check_references(
    jobs: &[Job],
    values: &[Option<f64>],
    art: &Artifacts,
    log: &mut Vec<String>,
) -> Vec<(usize, String)> {
    let mut failures = Vec::new();
    let mut verdict = |i: usize, what: String, got: Option<String>, want: Option<String>| {
        let ok = got.is_some() && got == want;
        log.push(format!(
            "check {what}: sim={} committed={} {}",
            got.as_deref().unwrap_or("<none>"),
            want.as_deref().unwrap_or("<missing>"),
            if ok { "ok" } else { "MISMATCH" }
        ));
        if !ok {
            failures.push((i, format!("{what} does not match the committed artifact")));
        }
    };
    for (i, job) in jobs.iter().enumerate() {
        match &job.reference {
            None => {}
            Some(Reference::Fig4 { series, x }) => verdict(
                i,
                format!("results/fig4.csv '{series}' x={x}"),
                values[i].map(|v| v.to_string()),
                figure_cell(&art.fig4, series, *x),
            ),
            Some(Reference::Table7 { row, col }) => verdict(
                i,
                format!("results/table7.csv '{row}' col {col}"),
                values[i].map(|v| format!("{v:.1}")),
                table_cell(&art.table7, row, col),
            ),
            Some(Reference::Fig10 { row, mode }) => {
                // Relative runtime needs the source-snoop job of the row.
                let base = jobs
                    .iter()
                    .enumerate()
                    .find_map(|(k, j)| match &j.reference {
                        Some(Reference::Fig10 { row: r, mode: 0 }) if r == row => values[k],
                        _ => None,
                    });
                let got = match (base, values[i]) {
                    (Some(b), Some(v)) => Some(format!("{:.3}", v / b)),
                    _ => None,
                };
                const COLS: [&str; 3] = ["source snoop", "home snoop", "COD"];
                let col = COLS[*mode];
                verdict(
                    i,
                    format!("results/fig10.csv '{row}' col {col}"),
                    got,
                    table_cell(&art.fig10, row, col),
                )
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_every_bit_and_on_order() {
        let a = Digest::of(&[Some(1.0), Some(2.0)]);
        assert_eq!(a, Digest::of(&[Some(1.0), Some(2.0)]));
        assert_ne!(a, Digest::of(&[Some(2.0), Some(1.0)]));
        assert_ne!(
            a,
            Digest::of(&[Some(1.0), Some(f64::from_bits(2.0f64.to_bits() + 1))])
        );
        assert_ne!(a, Digest::of(&[Some(1.0), None]));
    }

    #[test]
    fn csv_cells_are_found_with_commas_in_labels() {
        let table =
            "case,1,2\nlocal read, source snoop,12.1,24.1\nremote read, home snoop,8.2,16.2\n";
        assert_eq!(
            table_cell(table, "local read, source snoop", "1").as_deref(),
            Some("12.1")
        );
        assert_eq!(
            table_cell(table, "remote read, home snoop", "2").as_deref(),
            Some("16.2")
        );
        assert_eq!(table_cell(table, "remote read", "2"), None);
        assert_eq!(table_cell(table, "local read, source snoop", "3"), None);
        let fig = "series,x,y\nnode S,4096,20.5\nnode S,8192,21.25\n";
        assert_eq!(figure_cell(fig, "node S", 8192).as_deref(), Some("21.25"));
        assert_eq!(figure_cell(fig, "node M", 8192), None);
    }

    #[test]
    fn committed_artifacts_hold_the_reference_cells() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../results");
        let art = Artifacts::load(&root).expect("committed results");
        assert!(figure_cell(&art.fig4, "node S", 1 << 20).is_some());
        assert_eq!(
            table_cell(&art.table7, "local read, source snoop", "1").as_deref(),
            Some("12.1")
        );
        assert_eq!(
            table_cell(&art.fig10, "OMP2012 350.md", "COD").as_deref(),
            Some("1.007")
        );
    }

    #[test]
    fn a_wrong_result_is_reported() {
        let art = Artifacts {
            fig4: String::new(),
            table7: "case,1\nlocal read, source snoop,12.1\n".into(),
            fig10: String::new(),
        };
        let jobs = vec![crate::jobs::table7_reference_job()];
        let mut log = Vec::new();
        assert!(check_references(&jobs, &[Some(12.14)], &art, &mut log).is_empty());
        assert_eq!(
            check_references(&jobs, &[Some(12.2)], &art, &mut log).len(),
            1
        );
        assert_eq!(check_references(&jobs, &[None], &art, &mut log).len(), 1);
        assert!(log[1].ends_with("MISMATCH"));
    }
}
