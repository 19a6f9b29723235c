#[derive(Default)]
pub struct Store;

pub fn build() -> Store {
    crate::open()
}

impl Store {
    pub fn size(&self) -> usize {
        0
    }
}
