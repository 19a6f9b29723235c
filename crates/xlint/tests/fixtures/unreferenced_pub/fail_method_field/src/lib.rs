//! Dead methods reached only through a same-named field and a same-named
//! module path, beside a live one.

pub mod gauge {
    pub const MAX: u32 = 9;
}

pub struct Meter {
    pub level: u32,
}

impl Meter {
    pub fn read(&self) -> u32 {
        self.level
    }

    pub fn level(&self) -> u32 {
        self.level
    }

    pub fn gauge(&self) -> u32 {
        gauge::MAX
    }
}
