// Sabotage fixture: a SipHash `RandomState` map back on the oracle's price
// path. Never compiled — only fed to the analyzer binary.

use std::collections::HashMap;

pub struct Prices {
    current: HashMap<Token, Wad>,
}

impl Prices {
    pub fn new() -> Self {
        Prices {
            current: HashMap::new(),
        }
    }
}
