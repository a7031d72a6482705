//! Terminal rendering: scatter/line charts and aligned tables.
//!
//! The examples print their figure data; these helpers keep that
//! output legible without pulling in a plotting dependency.

/// Renders an XY series as an ASCII chart.
///
/// Multiple series can be overlaid; each uses its own glyph. Returns an
/// empty string when no finite points exist.
///
/// # Example
///
/// ```
/// use consume_local::ascii::Chart;
///
/// let series = vec![(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)];
/// let out = Chart::new(40, 10).series('*', &series).render();
/// assert!(out.contains('*'));
/// ```
#[derive(Debug, Clone)]
pub struct Chart {
    width: usize,
    height: usize,
    log_x: bool,
    series: Vec<(char, Vec<(f64, f64)>)>,
    y_range: Option<(f64, f64)>,
}

impl Chart {
    /// Creates an empty chart of `width × height` characters (minimums 16×4
    /// are enforced).
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            width: width.max(16),
            height: height.max(4),
            log_x: false,
            series: Vec::new(),
            y_range: None,
        }
    }

    /// Uses a logarithmic x axis (points with `x <= 0` are dropped).
    pub fn log_x(mut self) -> Self {
        self.log_x = true;
        self
    }

    /// Fixes the y range instead of auto-scaling.
    pub fn y_range(mut self, lo: f64, hi: f64) -> Self {
        self.y_range = Some((lo, hi));
        self
    }

    /// Adds a series rendered with `glyph`.
    pub fn series(mut self, glyph: char, points: &[(f64, f64)]) -> Self {
        self.series.push((glyph, points.to_vec()));
        self
    }

    /// Renders the chart.
    pub fn render(&self) -> String {
        let tx = |x: f64| if self.log_x { x.ln() } else { x };
        let pts: Vec<(usize, f64, f64)> = self
            .series
            .iter()
            .enumerate()
            .flat_map(|(si, (_, pts))| {
                pts.iter()
                    .filter(|(x, y)| x.is_finite() && y.is_finite() && (!self.log_x || *x > 0.0))
                    .map(move |&(x, y)| (si, tx(x), y))
            })
            .collect();
        if pts.is_empty() {
            return String::new();
        }
        let (mut x_lo, mut x_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y_lo, mut y_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(_, x, y) in &pts {
            x_lo = x_lo.min(x);
            x_hi = x_hi.max(x);
            y_lo = y_lo.min(y);
            y_hi = y_hi.max(y);
        }
        if let Some((lo, hi)) = self.y_range {
            y_lo = lo;
            y_hi = hi;
        }
        if x_hi == x_lo {
            x_hi = x_lo + 1.0;
        }
        if y_hi == y_lo {
            y_hi = y_lo + 1.0;
        }
        let mut grid = vec![vec![' '; self.width]; self.height];
        for &(si, x, y) in &pts {
            let cx = ((x - x_lo) / (x_hi - x_lo) * (self.width - 1) as f64).round() as usize;
            let fy = (y - y_lo) / (y_hi - y_lo);
            if !(0.0..=1.0).contains(&fy) {
                continue;
            }
            let cy = ((1.0 - fy) * (self.height - 1) as f64).round() as usize;
            let glyph = self.series[si].0;
            let cell = &mut grid[cy.min(self.height - 1)][cx.min(self.width - 1)];
            // Later series win on collisions unless the cell has the same glyph.
            *cell = glyph;
        }
        let mut out = String::new();
        for (i, row) in grid.iter().enumerate() {
            let label = if i == 0 {
                format!("{y_hi:>9.3} |")
            } else if i == self.height - 1 {
                format!("{y_lo:>9.3} |")
            } else {
                " ".repeat(9) + " |"
            };
            out.push_str(&label);
            out.extend(row.iter());
            out.push('\n');
        }
        let x_lo_label = if self.log_x { x_lo.exp() } else { x_lo };
        let x_hi_label = if self.log_x { x_hi.exp() } else { x_hi };
        out.push_str(&format!(
            "{}+{}\n{:>10}{:>width$.4}\n",
            " ".repeat(10),
            "-".repeat(self.width),
            format!("{x_lo_label:.4}"),
            x_hi_label,
            width = self.width - 4
        ));
        out
    }
}

/// Renders rows as an aligned text table.
///
/// # Example
///
/// ```
/// let t = consume_local::ascii::table(
///     &["model", "savings"],
///     &[vec!["Valancius".into(), "0.47".into()]],
/// );
/// assert!(t.contains("Valancius"));
/// ```
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: Vec<String>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate().take(cols) {
            line.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        line.trim_end().to_string() + "\n"
    };
    out.push_str(&render_row(
        headers.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    out.push_str(&render_row(
        widths.iter().map(|w| "-".repeat(*w)).collect(),
        &widths,
    ));
    for row in rows {
        out.push_str(&render_row(row.clone(), &widths));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_renders_points() {
        let out = Chart::new(30, 8)
            .series('o', &[(0.0, 0.0), (10.0, 1.0)])
            .render();
        assert!(out.contains('o'));
        assert!(out.lines().count() >= 8);
    }

    #[test]
    fn empty_chart_is_empty() {
        assert!(Chart::new(30, 8).render().is_empty());
        assert!(Chart::new(30, 8).series('x', &[]).render().is_empty());
        // Non-finite-only series render nothing.
        assert!(Chart::new(30, 8)
            .series('x', &[(f64::NAN, 1.0)])
            .render()
            .is_empty());
    }

    #[test]
    fn log_x_drops_nonpositive() {
        let out = Chart::new(30, 8)
            .log_x()
            .series('x', &[(-1.0, 0.5), (0.0, 0.5), (1.0, 0.5), (100.0, 0.9)])
            .render();
        assert_eq!(out.matches('x').count(), 2);
    }

    #[test]
    fn y_range_clips() {
        let out = Chart::new(30, 8)
            .y_range(0.0, 1.0)
            .series('x', &[(0.0, 0.5), (1.0, 5.0)]) // second point clipped
            .render();
        assert_eq!(out.matches('x').count(), 1);
    }

    #[test]
    fn multiple_series_overlay() {
        let out = Chart::new(30, 8)
            .series('a', &[(0.0, 0.0), (1.0, 0.2)])
            .series('b', &[(0.0, 1.0), (1.0, 0.8)])
            .render();
        assert!(out.contains('a'));
        assert!(out.contains('b'));
    }

    #[test]
    fn table_aligns_columns() {
        let out = table(
            &["a", "long-header"],
            &[
                vec!["1".into(), "2".into()],
                vec!["333333".into(), "4".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert!(lines[1].starts_with("------"));
    }
}
