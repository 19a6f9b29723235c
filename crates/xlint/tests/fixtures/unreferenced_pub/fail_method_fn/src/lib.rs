//! A dead method whose name a same-named free function shares.

pub struct Meter(pub u32);

impl Meter {
    pub fn reading(&self) -> u32 {
        self.0
    }
}
