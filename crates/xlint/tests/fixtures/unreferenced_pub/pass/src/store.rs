#[derive(Default)]
pub struct Store;

pub fn build() -> Store {
    crate::open()
}
