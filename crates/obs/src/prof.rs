//! Continuous profiling.
//!
//! The per-request profile trees of [`crate::profile`] answer "why was
//! *this* request slow"; this module answers "where do CPU and memory
//! go across *all* requests". The server folds every finished span tree
//! into the global [`Aggregator`] ([`global`]), which keeps cumulative
//! collapsed-stack form — stage path (`root;child;grandchild`) → total
//! wall-ns, self-ns, attributed allocation bytes/counts, and
//! invocations. Recent-window figures come from the `prof.*` registry
//! series, which [`crate::window::WindowLayer`] windows like every
//! other counter.
//!
//! Two renderings serve the aggregate: [`Aggregator::collapsed`]
//! produces the standard collapsed-stack text (`a;b;c VALUE`, one line
//! per path, value = self time or self bytes so a flamegraph tool can
//! re-fold it) and [`Aggregator::flame_svg`] a self-contained
//! hand-rolled flamegraph SVG — both exposed over the metrics listener
//! as `/debug/flame` and `/debug/flame.svg`.
//!
//! Per-principal cost lives in the insight rollups
//! ([`crate::insight::Insight::top`]), which fold the same requests.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Cumulative statistics for one stage path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// How many times the stage ran.
    pub invocations: u64,
    /// Total wall time, including child stages.
    pub wall_ns: u64,
    /// Total wall time minus time attributed to child stages.
    pub self_ns: u64,
    /// Allocation bytes attributed to the stage (including children).
    pub alloc_bytes: u64,
    /// Allocation bytes minus those attributed to child stages.
    pub self_alloc_bytes: u64,
    /// Allocation count attributed to the stage (including children).
    pub allocs: u64,
}

impl StageStats {
    fn absorb(&mut self, node: &crate::ProfileNode) {
        let child_wall: u64 = node.children.iter().map(|c| c.duration_ns).sum();
        let child_bytes: u64 = node.children.iter().map(|c| c.alloc_bytes).sum();
        self.invocations += 1;
        self.wall_ns += node.duration_ns;
        self.self_ns += node.duration_ns.saturating_sub(child_wall);
        self.alloc_bytes += node.alloc_bytes;
        self.self_alloc_bytes += node.alloc_bytes.saturating_sub(child_bytes);
        self.allocs += node.allocs;
    }
}

/// Which per-path value a collapsed-stack rendering carries. Both are
/// self values, so the lines under a root re-fold to its inclusive
/// total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlameMetric {
    /// Self wall time in nanoseconds (the flamegraph default).
    SelfNs,
    /// Self allocation bytes.
    AllocBytes,
}

#[derive(Default)]
struct AggInner {
    folds: u64,
    stages: BTreeMap<String, StageStats>,
}

/// The continuous profile aggregator. Use the process-wide [`global`]
/// instance; standalone instances exist for tests.
#[derive(Default)]
pub struct Aggregator {
    inner: Mutex<AggInner>,
}

impl Aggregator {
    /// Fold one finished profile tree into the cumulative aggregate.
    /// Also bumps the `prof.*` registry metrics (folds, attributed
    /// bytes/allocs, fold cost).
    pub fn fold(&self, node: &crate::ProfileNode) {
        let t = crate::start();
        let mut inner = self.inner.lock();
        inner.folds += 1;
        fold_node(&mut inner.stages, node, None);
        let paths = inner.stages.len();
        drop(inner);
        crate::counter!("prof.folds").inc();
        crate::counter!("prof.alloc.bytes").add(node.alloc_bytes);
        crate::counter!("prof.allocs").add(node.allocs);
        crate::gauge!("prof.stage_paths").set(paths as i64);
        if let Some(t) = t {
            crate::histogram!("prof.fold_ns").record_since(Some(t));
        }
    }

    /// Trees folded since creation (or the last [`Aggregator::reset`]).
    pub fn folds(&self) -> u64 {
        self.inner.lock().folds
    }

    /// A copy of the cumulative stage aggregate.
    pub fn stages(&self) -> BTreeMap<String, StageStats> {
        self.inner.lock().stages.clone()
    }

    /// Drop all aggregated state (tests).
    pub fn reset(&self) {
        *self.inner.lock() = AggInner::default();
    }

    /// The cumulative aggregate in collapsed-stack text form: one
    /// `path value` line per stage path, sorted by path. Summing every
    /// line under a root reproduces the root's inclusive total.
    pub fn collapsed(&self, metric: FlameMetric) -> String {
        let inner = self.inner.lock();
        let mut out = String::new();
        for (path, s) in &inner.stages {
            let v = match metric {
                FlameMetric::SelfNs => s.self_ns,
                FlameMetric::AllocBytes => s.self_alloc_bytes,
            };
            let _ = writeln!(out, "{path} {v}");
        }
        out
    }

    /// Render the cumulative aggregate as a self-contained flamegraph
    /// SVG (icicle layout, wall-time widths, per-node tooltips).
    pub fn flame_svg(&self) -> String {
        let inner = self.inner.lock();
        render_svg(&inner.stages, inner.folds)
    }

    /// A JSON rendering of the aggregate for the `/debug/prof` route:
    /// the fold count and the cumulative per-path stats.
    pub fn to_json(&self) -> String {
        let inner = self.inner.lock();
        let mut out = format!("{{\"folds\":{},\"stages\":[", inner.folds);
        for (i, (path, s)) in inner.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"path\":\"{}\",\"invocations\":{},\"wall_ns\":{},\"self_ns\":{},\
                 \"alloc_bytes\":{},\"allocs\":{}}}",
                crate::json_escape(path),
                s.invocations,
                s.wall_ns,
                s.self_ns,
                s.alloc_bytes,
                s.allocs
            );
        }
        out.push_str("]}");
        out
    }
}

/// Collapse a stage name into one path frame: `;` is the frame
/// separator and a space ends the frame in collapsed-stack grammar, so
/// both fold to `_`.
fn frame_name(stage: &str) -> String {
    stage
        .chars()
        .map(|c| {
            if c == ';' || c.is_whitespace() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

fn fold_node(
    map: &mut BTreeMap<String, StageStats>,
    node: &crate::ProfileNode,
    prefix: Option<&str>,
) {
    let path = match prefix {
        Some(p) => format!("{p};{}", frame_name(&node.stage)),
        None => frame_name(&node.stage),
    };
    map.entry(path.clone()).or_default().absorb(node);
    for c in &node.children {
        fold_node(map, c, Some(&path));
    }
}

/// The process-wide aggregator the server folds into.
pub fn global() -> &'static Aggregator {
    static GLOBAL: OnceLock<Aggregator> = OnceLock::new();
    GLOBAL.get_or_init(Aggregator::default)
}

// ---------------------------------------------------------------------
// Flamegraph SVG
// ---------------------------------------------------------------------

const SVG_WIDTH: f64 = 1200.0;
const SVG_MARGIN: f64 = 10.0;
const ROW_H: f64 = 17.0;
const HEADER_H: f64 = 28.0;

#[derive(Default)]
struct FlameNode {
    stats: StageStats,
    children: BTreeMap<String, FlameNode>,
}

fn build_tree(stages: &BTreeMap<String, StageStats>) -> FlameNode {
    let mut root = FlameNode::default();
    for (path, s) in stages {
        let mut node = &mut root;
        for frame in path.split(';') {
            node = node.children.entry(frame.to_owned()).or_default();
        }
        node.stats = *s;
    }
    root
}

fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// A warm, deterministic fill color derived from the frame name
/// (FNV-1a over the name bytes).
fn color(name: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!(
        "rgb({},{},{})",
        200 + (h % 56) as u8,
        60 + ((h >> 8) % 120) as u8,
        30 + ((h >> 16) % 40) as u8
    )
}

fn depth_of(node: &FlameNode) -> usize {
    1 + node.children.values().map(depth_of).max().unwrap_or(0)
}

fn render_svg(stages: &BTreeMap<String, StageStats>, folds: u64) -> String {
    let root = build_tree(stages);
    let total: u64 = root.children.values().map(|c| c.stats.wall_ns).sum();
    let depth = depth_of(&root).saturating_sub(1).max(1);
    let height = HEADER_H + depth as f64 * ROW_H + SVG_MARGIN;
    let mut out = String::from("<?xml version=\"1.0\" standalone=\"no\"?>\n");
    let _ = writeln!(
        out,
        "<svg version=\"1.1\" width=\"{SVG_WIDTH}\" height=\"{height}\" \
         xmlns=\"http://www.w3.org/2000/svg\">"
    );
    let _ = writeln!(
        out,
        "<rect x=\"0\" y=\"0\" width=\"{SVG_WIDTH}\" height=\"{height}\" fill=\"#f8f8f8\"/>"
    );
    let _ = writeln!(
        out,
        "<text x=\"{SVG_MARGIN}\" y=\"18\" font-size=\"13\" font-family=\"monospace\">\
         motro continuous profile — {} stage paths, {} requests folded, {total}ns total</text>",
        stages.len(),
        folds
    );
    let usable = SVG_WIDTH - 2.0 * SVG_MARGIN;
    let scale = if total == 0 {
        0.0
    } else {
        usable / total as f64
    };
    let mut x = SVG_MARGIN;
    for (name, child) in &root.children {
        render_node(&mut out, name, name, child, x, 0, scale);
        x += child.stats.wall_ns as f64 * scale;
    }
    out.push_str("</svg>\n");
    out
}

fn render_node(
    out: &mut String,
    name: &str,
    path: &str,
    node: &FlameNode,
    x: f64,
    depth: usize,
    scale: f64,
) {
    let w = node.stats.wall_ns as f64 * scale;
    if w < 0.2 {
        return;
    }
    let y = HEADER_H + depth as f64 * ROW_H;
    let s = &node.stats;
    let _ = writeln!(
        out,
        "<g><rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{w:.2}\" height=\"{:.2}\" \
         fill=\"{}\" stroke=\"#f8f8f8\" stroke-width=\"0.5\"/>",
        ROW_H - 1.0,
        color(name)
    );
    if w >= 40.0 {
        let label: String = name.chars().take((w / 7.0) as usize).collect();
        let _ = writeln!(
            out,
            "<text x=\"{:.2}\" y=\"{:.2}\" font-size=\"11\" font-family=\"monospace\">{}</text>",
            x + 2.0,
            y + 12.0,
            xml_escape(&label)
        );
    }
    let _ = writeln!(
        out,
        "<title>{} — {}ns total, {}ns self, {}B allocated ({} allocs), x{}</title></g>",
        xml_escape(path),
        s.wall_ns,
        s.self_ns,
        s.alloc_bytes,
        s.allocs,
        s.invocations
    );
    let mut cx = x;
    for (cname, child) in &node.children {
        let cpath = format!("{path};{cname}");
        render_node(out, cname, &cpath, child, cx, depth + 1, scale);
        cx += child.stats.wall_ns as f64 * scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProfileNode;

    fn node(stage: &str, dur: u64, bytes: u64, children: Vec<ProfileNode>) -> ProfileNode {
        ProfileNode {
            stage: stage.to_owned(),
            span_id: 0,
            duration_ns: dur,
            alloc_bytes: bytes,
            allocs: if bytes > 0 { 1 } else { 0 },
            fields: Vec::new(),
            children,
        }
    }

    fn request_tree() -> ProfileNode {
        node(
            "server.request",
            1000,
            600,
            vec![
                node("parse", 200, 100, Vec::new()),
                node(
                    "mask.compute",
                    500,
                    400,
                    vec![node("meta.select", 300, 200, Vec::new())],
                ),
            ],
        )
    }

    #[test]
    fn fold_accumulates_paths_and_self_times() {
        let agg = Aggregator::default();
        agg.fold(&request_tree());
        agg.fold(&request_tree());
        let stages = agg.stages();
        let root = &stages["server.request"];
        assert_eq!(root.invocations, 2);
        assert_eq!(root.wall_ns, 2000);
        assert_eq!(root.self_ns, 2 * (1000 - 700));
        assert_eq!(root.alloc_bytes, 1200);
        let sel = &stages["server.request;mask.compute;meta.select"];
        assert_eq!(sel.wall_ns, 600);
        assert_eq!(sel.self_ns, 600);
        // Self times re-fold to the root's inclusive wall time.
        let folded: u64 = stages.values().map(|s| s.self_ns).sum();
        assert_eq!(folded, root.wall_ns);
        assert_eq!(agg.folds(), 2);
        agg.fold(&request_tree());
        let json = agg.to_json();
        assert!(json.contains("\"folds\":3"), "{json}");
    }

    #[test]
    fn alloc_lines_refold_to_the_root_bytes() {
        let agg = Aggregator::default();
        agg.fold(&request_tree());
        let text = agg.collapsed(FlameMetric::AllocBytes);
        let total: u64 = text
            .lines()
            .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
            .sum();
        assert_eq!(
            total, 600,
            "self bytes re-fold to the root's inclusive bytes"
        );
        assert!(text.contains("server.request;mask.compute 200"), "{text}");
    }

    #[test]
    fn collapsed_text_matches_the_grammar() {
        let agg = Aggregator::default();
        agg.fold(&request_tree());
        let text = agg.collapsed(FlameMetric::SelfNs);
        let mut total = 0u64;
        for line in text.lines() {
            let (path, value) = line.rsplit_once(' ').expect("`path value` lines");
            assert!(!path.is_empty() && !path.contains("  "));
            for frame in path.split(';') {
                assert!(!frame.is_empty(), "empty frame in {line}");
            }
            total += value.parse::<u64>().expect("numeric value");
        }
        assert_eq!(total, 1000, "self values re-fold to the root total");
        let bytes = agg.collapsed(FlameMetric::AllocBytes);
        assert!(bytes.contains("server.request;parse 100"), "{bytes}");
    }

    #[test]
    fn stage_names_are_sanitized_for_the_path_grammar() {
        let agg = Aggregator::default();
        agg.fold(&node("odd stage;name", 10, 0, Vec::new()));
        let text = agg.collapsed(FlameMetric::SelfNs);
        assert_eq!(text.trim(), "odd_stage_name 10");
    }

    #[test]
    fn svg_is_well_formed_and_labelled() {
        let agg = Aggregator::default();
        agg.fold(&request_tree());
        let svg = agg.flame_svg();
        assert!(svg.starts_with("<?xml"));
        assert!(svg.contains("<svg ") && svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<g>").count(), svg.matches("</g>").count());
        assert!(svg.matches("<rect").count() >= 4, "one rect per stage");
        assert!(svg.contains("server.request;mask.compute;meta.select"));
        assert!(svg.contains("300ns self"), "tooltip carries self time");
    }

    #[test]
    fn empty_aggregate_still_renders() {
        let agg = Aggregator::default();
        assert_eq!(agg.collapsed(FlameMetric::SelfNs), "");
        let svg = agg.flame_svg();
        assert!(svg.contains("</svg>"), "{svg}");
    }
}
