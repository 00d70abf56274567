//! A deterministic character frame buffer.
//!
//! The explorer never talks to a terminal directly: every view is
//! rendered into a [`Frame`] — a fixed-size grid of `char` cells —
//! and lowered to a plain string. That makes TUI output a pure
//! function of state, so frames can be asserted byte-for-byte in
//! snapshot tests and replayed in CI without a PTY.

/// A `width × height` grid of character cells, initially blank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    width: usize,
    height: usize,
    cells: Vec<char>,
}

impl Frame {
    /// Creates a blank frame.
    #[must_use]
    pub fn new(width: usize, height: usize) -> Self {
        Frame {
            width,
            height,
            cells: vec![' '; width * height],
        }
    }

    /// Sets one cell; writes outside the frame are silently clipped.
    pub fn put(&mut self, x: usize, y: usize, c: char) {
        if x < self.width && y < self.height {
            self.cells[y * self.width + x] = c;
        }
    }

    /// Writes a string starting at `(x, y)`, clipping at the right
    /// edge. Returns the x position one past the last written cell.
    pub fn put_str(&mut self, x: usize, y: usize, s: &str) -> usize {
        let mut cx = x;
        for c in s.chars() {
            self.put(cx, y, c);
            cx += 1;
        }
        cx
    }

    /// Draws a box with Unicode borders spanning `w × h` cells whose
    /// top-left corner is `(x, y)`.
    pub fn draw_box(&mut self, x: usize, y: usize, w: usize, h: usize) {
        if w < 2 || h < 2 {
            return;
        }
        let (right, bottom) = (x + w - 1, y + h - 1);
        self.put(x, y, '┌');
        self.put(right, y, '┐');
        self.put(x, bottom, '└');
        self.put(right, bottom, '┘');
        for cx in x + 1..right {
            self.put(cx, y, '─');
            self.put(cx, bottom, '─');
        }
        for cy in y + 1..bottom {
            self.put(x, cy, '│');
            self.put(right, cy, '│');
        }
    }

    /// Lowers the frame to text: one line per row, trailing blanks
    /// trimmed, terminated by a final newline.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::with_capacity((self.width + 1) * self.height);
        for y in 0..self.height {
            let row: String = self.cells[y * self.width..(y + 1) * self.width]
                .iter()
                .collect();
            out.push_str(row.trim_end());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_str_clips_at_the_right_edge() {
        let mut f = Frame::new(5, 1);
        f.put_str(3, 0, "abcdef");
        assert_eq!(f.render(), "   ab\n");
    }

    #[test]
    fn out_of_bounds_writes_are_ignored() {
        let mut f = Frame::new(3, 2);
        f.put(10, 10, 'x');
        assert_eq!(f.render(), "\n\n");
    }

    #[test]
    fn boxes_have_corners_and_edges() {
        let mut f = Frame::new(6, 4);
        f.draw_box(0, 0, 6, 4);
        f.put_str(1, 1, "hi");
        assert_eq!(f.render(), "┌────┐\n│hi  │\n│    │\n└────┘\n");
    }

    #[test]
    fn rendering_is_a_pure_function_of_state() {
        let mut f = Frame::new(8, 2);
        f.put_str(0, 0, "same");
        assert_eq!(f.render(), f.clone().render());
    }
}
