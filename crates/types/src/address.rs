//! Account/contract addresses and transaction hashes.
//!
//! The measurement pipeline identifies liquidators by their unique Ethereum
//! address (§4.3.1 of the paper: "we assume that each unique Ethereum address
//! represents one liquidator"), so addresses are first-class values here.

use core::fmt;
use core::str::FromStr;

use crate::error::TypeError;

/// A 20-byte account or contract address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(pub [u8; 20]);

impl Address {
    /// The zero address, used as a sentinel for "no address" / burn.
    pub const ZERO: Address = Address([0u8; 20]);

    /// Deterministically derive an address from a numeric seed. The suite
    /// uses this to give simulated agents and contracts stable, readable
    /// identities without needing a keccak implementation.
    pub fn from_seed(seed: u64) -> Address {
        let mut bytes = [0u8; 20];
        // Simple splitmix64-based expansion: decorrelates consecutive seeds
        // so that address prefixes look uniformly distributed.
        let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        for chunk in bytes.chunks_mut(8) {
            x = splitmix64(x);
            let le = x.to_le_bytes();
            for (dst, src) in chunk.iter_mut().zip(le.iter()) {
                *dst = *src;
            }
        }
        Address(bytes)
    }

    /// Derive a "contract" address from a human-readable label. Stable across
    /// runs, so scenario configs can refer to well-known contracts by name.
    pub fn from_label(label: &str) -> Address {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Address::from_seed(h)
    }

    /// Whether this is the zero address.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 20]
    }

    /// Short display form (`0x1234…abcd`) used in reports: the first and
    /// the last two bytes in hex.
    pub fn short(&self) -> String {
        let [a, b, .., y, z] = self.0;
        format!("0x{a:02x}{b:02x}…{y:02x}{z:02x}")
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl FromStr for Address {
    type Err = TypeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.strip_prefix("0x").unwrap_or(s);
        if s.len() != 40 {
            return Err(TypeError::Parse("Address: expected 40 hex chars"));
        }
        let mut bytes = [0u8; 20];
        for (i, byte) in bytes.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&s[2 * i..2 * i + 2], 16)
                .map_err(|_| TypeError::Parse("Address: invalid hex"))?;
        }
        Ok(Address(bytes))
    }
}

/// A 32-byte transaction hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxHash(pub [u8; 32]);

impl TxHash {
    /// Deterministically derive a hash from components (block, index, nonce).
    /// Not cryptographic; only needs to be unique within a simulation run.
    pub fn derive(block: u64, index: u64, salt: u64) -> TxHash {
        let mut bytes = [0u8; 32];
        let mut x = block
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index)
            .rotate_left(17)
            .wrapping_add(salt);
        for chunk in bytes.chunks_mut(8) {
            x = splitmix64(x);
            chunk.copy_from_slice(&x.to_le_bytes());
        }
        TxHash(bytes)
    }
}

impl fmt::Display for TxHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_addresses_are_stable_and_distinct() {
        let a = Address::from_seed(1);
        let b = Address::from_seed(2);
        assert_eq!(a, Address::from_seed(1));
        assert_ne!(a, b);
        assert!(!a.is_zero());
    }

    #[test]
    fn label_addresses_are_stable() {
        assert_eq!(
            Address::from_label("aave-v2"),
            Address::from_label("aave-v2")
        );
        assert_ne!(
            Address::from_label("aave-v2"),
            Address::from_label("compound")
        );
    }

    #[test]
    fn display_and_parse_roundtrip() {
        let a = Address::from_seed(42);
        let s = a.to_string();
        assert!(s.starts_with("0x"));
        assert_eq!(s.len(), 42);
        assert_eq!(Address::from_str(&s).unwrap(), a);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(Address::from_str("0x1234").is_err());
        assert!(Address::from_str(&"zz".repeat(20)).is_err());
    }

    #[test]
    fn short_form() {
        let a = Address::ZERO;
        assert_eq!(a.short(), "0x0000…0000");
        // The same bytes as slicing the full form.
        let seeded = Address::from_seed(7);
        let full = seeded.to_string();
        assert_eq!(
            seeded.short(),
            format!("{}…{}", &full[..6], &full[full.len() - 4..])
        );
    }

    #[test]
    fn tx_hash_unique_per_index() {
        assert_ne!(TxHash::derive(1, 0, 0), TxHash::derive(1, 1, 0));
        assert_eq!(TxHash::derive(5, 3, 9), TxHash::derive(5, 3, 9));
        assert_eq!(TxHash::derive(1, 0, 0).to_string().len(), 66);
    }
}
