//! Data series: named `(x, y)` sequences that back the paper's figures.

/// One point of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataPoint {
    /// The x coordinate (e.g. number of parallel VM sequences, payload size).
    pub x: f64,
    /// The y coordinate (e.g. seconds, milliseconds, watts).
    pub y: f64,
}

/// A named series of data points, e.g. one line of Figure 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Label shown in figure legends ("Jitsu Xenstored", "mirage", …).
    pub label: String,
    /// The points, in x order as produced by the experiment sweep.
    pub points: Vec<DataPoint>,
}

impl Series {
    /// Create an empty series with a label.
    pub fn new(label: impl Into<String>) -> Series {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Create a series from `(x, y)` tuples.
    pub fn from_points(
        label: impl Into<String>,
        pts: impl IntoIterator<Item = (f64, f64)>,
    ) -> Series {
        let mut s = Series::new(label);
        for (x, y) in pts {
            s.push(x, y);
        }
        s
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push(DataPoint { x, y });
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The y value at a given x, if present (exact match).
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|p| p.x == x).map(|p| p.y)
    }

    /// Linear interpolation of y at an arbitrary x inside the series range.
    /// Returns `None` when the series is empty or x is outside its range.
    pub fn interpolate(&self, x: f64) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        let mut pts = self.points.clone();
        pts.sort_by(|a, b| a.x.partial_cmp(&b.x).unwrap_or(std::cmp::Ordering::Equal));
        if x < pts[0].x || x > pts[pts.len() - 1].x {
            return None;
        }
        for w in pts.windows(2) {
            let (a, b) = (w[0], w[1]);
            if (a.x..=b.x).contains(&x) {
                if (b.x - a.x).abs() < f64::EPSILON {
                    return Some(a.y);
                }
                let t = (x - a.x) / (b.x - a.x);
                return Some(a.y * (1.0 - t) + b.y * t);
            }
        }
        Some(pts[pts.len() - 1].y)
    }

    /// Maximum y value in the series.
    pub fn max_y(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|p| p.y)
            .fold(None, |acc, y| Some(acc.map_or(y, |m: f64| m.max(y))))
    }

    /// True if y never decreases as x increases (after sorting by x).
    pub fn is_monotone_nondecreasing(&self) -> bool {
        let mut pts = self.points.clone();
        pts.sort_by(|a, b| a.x.partial_cmp(&b.x).unwrap_or(std::cmp::Ordering::Equal));
        pts.windows(2).all(|w| w[1].y >= w[0].y - 1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_lookup() {
        let mut s = Series::new("jitsu");
        s.push(1.0, 10.0);
        s.push(2.0, 20.0);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.label, "jitsu");
        assert_eq!(s.y_at(2.0), Some(20.0));
        assert_eq!(s.y_at(3.0), None);
    }

    #[test]
    fn from_points_builds_series() {
        let s = Series::from_points("l", [(0.0, 1.0), (1.0, 2.0)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.points[1], DataPoint { x: 1.0, y: 2.0 });
    }

    #[test]
    fn interpolation() {
        let s = Series::from_points("l", [(0.0, 0.0), (10.0, 100.0)]);
        assert_eq!(s.interpolate(5.0), Some(50.0));
        assert_eq!(s.interpolate(0.0), Some(0.0));
        assert_eq!(s.interpolate(10.0), Some(100.0));
        assert_eq!(s.interpolate(-1.0), None);
        assert_eq!(s.interpolate(11.0), None);
        assert_eq!(Series::new("e").interpolate(1.0), None);
    }

    #[test]
    fn interpolation_with_duplicate_x() {
        let s = Series::from_points("l", [(1.0, 5.0), (1.0, 7.0)]);
        assert_eq!(s.interpolate(1.0), Some(5.0));
    }

    #[test]
    fn min_max_and_monotone() {
        let s = Series::from_points("l", [(0.0, 3.0), (1.0, 1.0), (2.0, 5.0)]);
        assert_eq!(s.max_y(), Some(5.0));
        assert!(!s.is_monotone_nondecreasing());
        let m = Series::from_points("m", [(0.0, 1.0), (1.0, 1.0), (2.0, 4.0)]);
        assert!(m.is_monotone_nondecreasing());
        assert_eq!(Series::new("e").max_y(), None);
    }
}
