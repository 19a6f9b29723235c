//! A warm replay that keys its partials by the side's display string: the
//! `String` key leaks text onto the probe path.  `compile`, outside the
//! scope, may format freely.

use std::collections::HashMap;

pub struct Cache {
    partials: HashMap<(u64, String), f64>,
}

impl Cache {
    pub fn merged_partials(&self, segments: &[u64], side: &str) -> f64 {
        let mut total = 0.0;
        for &segment in segments {
            let key: (u64, String) = (segment, side.to_owned());
            total += self.partials.get(&key).copied().unwrap_or(0.0);
        }
        total
    }

    pub fn compile(&self, attribute: &str, value: &str) -> String {
        format!("{attribute} = {value}")
    }
}
