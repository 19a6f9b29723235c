//! Dead methods whose names local variables share, beside a live one.

#[derive(Default)]
pub struct Gauge(u32);

impl Gauge {
    pub fn bump(&mut self) {
        self.0 += 1;
    }

    pub fn level(&self) -> u32 {
        self.0
    }

    pub fn apply<'a, F: Fn() -> u32>(&'a mut self, f: F) {
        self.0 = f();
    }
}
