//! Text renderings of the paper's figures: named data series with
//! labelled x-positions, printable as aligned text or sparklines.


/// One named data series (e.g. one model's accuracy per level).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Series name (model name, family name, …).
    pub name: String,
    /// `(x label, y value)` points in order.
    pub points: Vec<(String, f64)>,
}

impl Series {
    /// Build from `(label, value)` pairs.
    pub fn new(name: impl Into<String>, points: Vec<(String, f64)>) -> Self {
        Series { name: name.into(), points }
    }

    /// A unicode sparkline of the values (scaled to the series' own
    /// min/max; flat series render as mid blocks).
    pub fn sparkline(&self) -> String {
        const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        if self.points.is_empty() {
            return String::new();
        }
        let min = self.points.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let max = self.points.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        self.points
            .iter()
            .map(|&(_, v)| {
                let t = if (max - min).abs() < 1e-12 { 0.5 } else { (v - min) / (max - min) };
                BLOCKS[((t * 7.0).round() as usize).min(7)]
            })
            .collect()
    }
}

/// A figure: a set of series over a shared x-axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Figure title (e.g. "Figure 3(b): Amazon, hard, zero-shot").
    pub title: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Create an empty figure.
    pub fn new(title: impl Into<String>) -> Self {
        Figure { title: title.into(), series: Vec::new() }
    }

    /// Add a series.
    pub fn push(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Render as aligned text: one row per series with values and a
    /// sparkline.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        let name_w = self.series.iter().map(|s| s.name.len()).max().unwrap_or(6).max(6);
        if let Some(first) = self.series.first() {
            let labels: Vec<String> = first
                .points
                .iter()
                .map(|(l, _)| format!("{l:>w$}", w = l.len().max(5)))
                .collect();
            out.push_str(&format!("{:<name_w$} {}\n", "series", labels.join("  ")));
        }
        for s in &self.series {
            let vals: Vec<String> = s.points.iter().map(|(l, v)| format!("{v:>w$.3}", w = l.len().max(5))).collect();
            out.push_str(&format!("{:<name_w$} {}  {}\n", s.name, vals.join("  "), s.sparkline()));
        }
        out
    }

    /// Is the overall trend of a series decreasing (first third mean >
    /// last third mean)? Used to assert the root-to-leaf decline.
    pub fn series_declines(series: &Series) -> bool {
        let n = series.points.len();
        if n < 2 {
            return false;
        }
        let third = (n / 3).max(1);
        let head: f64 = series.points[..third].iter().map(|p| p.1).sum::<f64>() / third as f64;
        let tail: f64 =
            series.points[n - third..].iter().map(|p| p.1).sum::<f64>() / third as f64;
        head > tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> Series {
        Series::new(
            "GPT-4",
            vec![("L1".into(), 0.9), ("L2".into(), 0.8), ("L3".into(), 0.6)],
        )
    }

    #[test]
    fn sparkline_shape() {
        let s = series().sparkline();
        assert_eq!(s.chars().count(), 3);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars[0], '█');
        assert_eq!(chars[2], '▁');
    }

    #[test]
    fn sparkline_flat_and_empty() {
        let flat = Series::new("x", vec![("a".into(), 0.5), ("b".into(), 0.5)]);
        assert_eq!(flat.sparkline().chars().count(), 2);
        let empty = Series::new("x", vec![]);
        assert_eq!(empty.sparkline(), "");
    }

    #[test]
    fn figure_text_rendering() {
        let mut f = Figure::new("Figure 3(x): demo");
        f.push(series());
        let text = f.render_text();
        assert!(text.starts_with("Figure 3(x): demo\n"));
        assert!(text.contains("GPT-4"));
        assert!(text.contains("0.900"));
    }

    #[test]
    fn decline_detection() {
        assert!(Figure::series_declines(&series()));
        let rising = Series::new("r", vec![("a".into(), 0.2), ("b".into(), 0.9)]);
        assert!(!Figure::series_declines(&rising));
        let single = Series::new("s", vec![("a".into(), 0.2)]);
        assert!(!Figure::series_declines(&single));
    }
}
