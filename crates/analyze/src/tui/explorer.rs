//! The interactive divergence explorer.
//!
//! The explorer is a state machine over pre-probed per-iteration tree
//! diffs: `h`/`l` move the iteration cursor, `t` toggles between the
//! Merkle tree view and the chunks×iterations heatmap, `q` quits.
//! [`Explorer::render`] lowers the current state to a frame string and
//! [`Explorer::play`] replays a whole key script — which is exactly
//! what `reprocmp analyze --keys` drives, and what the snapshot
//! tests assert byte-for-byte.

use reprocmp_core::{CheckpointHistory, CompareEngine, CoreError, CoreResult};

use crate::probe::{load_tree, TreeDiff};
use crate::tui::frame::Frame;
use crate::tui::widgets::{heatmap, tree_view, HeatColumn};

/// Default explorer frame geometry.
pub const FRAME_WIDTH: usize = 72;
/// Default explorer frame height.
pub const FRAME_HEIGHT: usize = 18;

/// Which widget fills the body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    /// Per-level Merkle mismatch summary of the cursor iteration.
    Tree,
    /// Chunks×iterations heatmap of the whole history.
    Heatmap,
}

/// One iteration's pre-computed diff (ranks aggregated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationDiff {
    /// Iteration number.
    pub iteration: u64,
    /// Per-level `(nodes, mismatched)` summed across ranks.
    pub levels: Vec<(usize, usize)>,
    /// Leaf masks concatenated across ranks in rank order.
    pub leaf_mask: Vec<bool>,
}

impl IterationDiff {
    /// True when no node mismatched at this iteration.
    #[must_use]
    fn clean(&self) -> bool {
        self.levels.iter().all(|&(_, m)| m == 0)
    }
}

/// Explorer state: diffs, cursor, view, quit flag.
#[derive(Debug, Clone)]
pub struct Explorer {
    iterations: Vec<IterationDiff>,
    cursor: usize,
    view: View,
    quit: bool,
}

impl Explorer {
    /// Builds an explorer directly from per-iteration diffs. The
    /// cursor starts on the first non-clean iteration (or 0).
    #[must_use]
    fn new(iterations: Vec<IterationDiff>) -> Self {
        let cursor = iterations.iter().position(|d| !d.clean()).unwrap_or(0);
        Explorer {
            iterations,
            cursor,
            view: View::Tree,
            quit: false,
        }
    }

    /// Probes two histories (stage 1 only — metadata, zero payload
    /// bytes) and builds the explorer over the per-iteration diffs.
    ///
    /// # Errors
    ///
    /// [`CoreError::Mismatch`] on differing key sets; probe errors.
    pub fn build(
        engine: &CompareEngine,
        a: &CheckpointHistory,
        b: &CheckpointHistory,
    ) -> CoreResult<Explorer> {
        if a.keys() != b.keys() {
            return Err(CoreError::Mismatch(format!(
                "histories cover different checkpoints: run 1 has {} entries, run 2 has {}",
                a.len(),
                b.len()
            )));
        }
        let mut keys = a.keys();
        keys.sort_by_key(|&(rank, iter)| (iter, rank));
        let mut iterations: Vec<IterationDiff> = Vec::new();
        for (rank, iteration) in keys {
            let sa = a.get(rank, iteration).expect("key set verified");
            let sb = b.get(rank, iteration).expect("key set verified");
            let diff = TreeDiff::of(&load_tree(sa, engine)?, &load_tree(sb, engine)?)?;
            match iterations.last_mut() {
                Some(d) if d.iteration == iteration => {
                    for (l, &(w, m)) in diff.levels.iter().enumerate() {
                        if l < d.levels.len() {
                            d.levels[l].0 += w;
                            d.levels[l].1 += m;
                        } else {
                            d.levels.push((w, m));
                        }
                    }
                    d.leaf_mask.extend(&diff.leaf_mask);
                }
                _ => iterations.push(IterationDiff {
                    iteration,
                    levels: diff.levels,
                    leaf_mask: diff.leaf_mask,
                }),
            }
        }
        Ok(Explorer::new(iterations))
    }

    /// True once `q` was pressed.
    #[must_use]
    pub fn quit_requested(&self) -> bool {
        self.quit
    }

    /// Applies one keypress: `h`/`l` move the cursor, `t` toggles the
    /// view, `q` quits; anything else is ignored.
    pub fn handle_key(&mut self, key: char) {
        match key {
            'h' => self.cursor = self.cursor.saturating_sub(1),
            'l' if self.cursor + 1 < self.iterations.len() => self.cursor += 1,
            't' => {
                self.view = match self.view {
                    View::Tree => View::Heatmap,
                    View::Heatmap => View::Tree,
                };
            }
            'q' => self.quit = true,
            _ => {}
        }
    }

    /// Renders the current state to a frame string — a pure function
    /// of state, identical across runs.
    #[must_use]
    pub fn render(&self) -> String {
        let mut f = Frame::new(FRAME_WIDTH, FRAME_HEIGHT);
        f.draw_box(0, 0, FRAME_WIDTH, FRAME_HEIGHT);
        let title = match self.view {
            View::Tree => " reprocmp analyze — merkle tree ",
            View::Heatmap => " reprocmp analyze — heatmap ",
        };
        f.put_str(2, 0, title);
        let status = match self.iterations.get(self.cursor) {
            Some(d) => format!(
                " iteration {} [{}/{}] — {} ",
                d.iteration,
                self.cursor + 1,
                self.iterations.len(),
                if d.clean() { "clean" } else { "divergent" },
            ),
            None => " empty history ".to_owned(),
        };
        f.put_str(2, FRAME_HEIGHT - 1, &status);
        f.put_str(
            FRAME_WIDTH - 24,
            FRAME_HEIGHT - 1,
            " h/l move · t view · q ",
        );
        match self.view {
            View::Tree => {
                if let Some(d) = self.iterations.get(self.cursor) {
                    let diff = TreeDiff {
                        chunk_bytes: 0,
                        levels: d.levels.clone(),
                        leaf_mask: d.leaf_mask.clone(),
                    };
                    tree_view(&mut f, 3, 2, &diff);
                }
            }
            View::Heatmap => {
                let columns: Vec<HeatColumn> = self
                    .iterations
                    .iter()
                    .map(|d| HeatColumn {
                        iteration: d.iteration,
                        mask: d.leaf_mask.clone(),
                    })
                    .collect();
                heatmap(
                    &mut f,
                    3,
                    2,
                    FRAME_WIDTH - 6,
                    FRAME_HEIGHT - 4,
                    &columns,
                    self.cursor,
                );
            }
        }
        f.render()
    }

    /// Renders the initial frame, then one frame per key until the
    /// script ends or `q` is pressed. Whitespace in the script is
    /// ignored, so scripts can be written readably (`"l l t q"`).
    pub fn play(&mut self, script: &str) -> Vec<String> {
        let mut frames = vec![self.render()];
        for key in script.chars().filter(|c| !c.is_whitespace()) {
            if self.quit {
                break;
            }
            self.handle_key(key);
            frames.push(self.render());
        }
        frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reprocmp_core::{CheckpointSource, EngineConfig};

    fn engine() -> CompareEngine {
        CompareEngine::new(EngineConfig {
            chunk_bytes: 64,
            error_bound: 1e-5,
            ..EngineConfig::default()
        })
    }

    fn cursor_iteration(x: &Explorer) -> Option<u64> {
        x.iterations.get(x.cursor).map(|d| d.iteration)
    }

    fn pair(e: &CompareEngine) -> (CheckpointHistory, CheckpointHistory) {
        let mut a = CheckpointHistory::new();
        let mut b = CheckpointHistory::new();
        for it in 0..4u64 {
            let base: Vec<f32> = (0..128).map(|k| k as f32 * 0.01 + it as f32).collect();
            let mut other = base.clone();
            if it >= 2 {
                other[0] += 1.0;
            }
            a.insert(0, it, CheckpointSource::in_memory(&base, e).unwrap());
            b.insert(0, it, CheckpointSource::in_memory(&other, e).unwrap());
        }
        (a, b)
    }

    #[test]
    fn cursor_starts_on_the_first_divergent_iteration() {
        let e = engine();
        let (a, b) = pair(&e);
        let x = Explorer::build(&e, &a, &b).unwrap();
        assert_eq!(cursor_iteration(&x), Some(2));
    }

    #[test]
    fn keys_move_toggle_and_quit() {
        let e = engine();
        let (a, b) = pair(&e);
        let mut x = Explorer::build(&e, &a, &b).unwrap();
        x.handle_key('h');
        assert_eq!(cursor_iteration(&x), Some(1));
        x.handle_key('l');
        x.handle_key('l');
        assert_eq!(cursor_iteration(&x), Some(3));
        x.handle_key('l'); // clamped at the end
        assert_eq!(cursor_iteration(&x), Some(3));
        assert_eq!(x.view, View::Tree);
        x.handle_key('t');
        assert_eq!(x.view, View::Heatmap);
        assert!(!x.quit_requested());
        x.handle_key('q');
        assert!(x.quit_requested());
    }

    #[test]
    fn frames_are_byte_identical_across_renders() {
        let e = engine();
        let (a, b) = pair(&e);
        let x = Explorer::build(&e, &a, &b).unwrap();
        assert_eq!(x.render(), x.render());
        let y = Explorer::build(&e, &a, &b).unwrap();
        assert_eq!(x.render(), y.render());
    }

    #[test]
    fn play_emits_one_frame_per_key_and_stops_on_quit() {
        let e = engine();
        let (a, b) = pair(&e);
        let mut x = Explorer::build(&e, &a, &b).unwrap();
        let frames = x.play("t q l l");
        // initial + t + q; the keys after q never render.
        assert_eq!(frames.len(), 3);
        assert!(frames[0].contains("merkle tree"));
        assert!(frames[1].contains("heatmap"));
    }

    #[test]
    fn every_frame_fits_the_fixed_geometry() {
        let e = engine();
        let (a, b) = pair(&e);
        let mut x = Explorer::build(&e, &a, &b).unwrap();
        for frame in x.play("h h t l l t q") {
            assert_eq!(frame.lines().count(), FRAME_HEIGHT);
            for line in frame.lines() {
                assert!(line.chars().count() <= FRAME_WIDTH);
            }
        }
    }
}
