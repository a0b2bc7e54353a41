//! Opaque frame identifiers.
//!
//! The testbed simulator and the analytical models exchange these identifiers
//! instead of raw integers, so a frame index can never be mixed up with any
//! other count.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(u64);

        impl $name {
            /// Creates an identifier from a raw index.
            #[must_use]
            pub const fn new(index: u64) -> Self {
                Self(index)
            }

            /// Returns the raw index.
            #[must_use]
            pub const fn index(self) -> u64 {
                self.0
            }

            /// Returns the identifier following this one.
            #[must_use]
            pub const fn next(self) -> Self {
                Self(self.0 + 1)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(index: u64) -> Self {
                Self(index)
            }
        }

        impl From<$name> for u64 {
            fn from(id: $name) -> u64 {
                id.0
            }
        }
    };
}

id_type!(
    /// Identifies a generated frame `q ∈ {1, …, Q_n}`.
    FrameId,
    "frame-"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_displayable() {
        let a = FrameId::new(1);
        let b = a.next();
        assert!(b > a);
        assert_eq!(b.index(), 2);
        assert_eq!(format!("{a}"), "frame-1");
    }

    #[test]
    fn ids_round_trip_through_u64() {
        let id = FrameId::from(42u64);
        assert_eq!(u64::from(id), 42);
    }

    #[test]
    fn ids_usable_as_map_keys() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(FrameId::new(1), "first");
        m.insert(FrameId::new(2), "second");
        assert_eq!(m[&FrameId::new(1)], "first");
        assert_eq!(m.len(), 2);
    }
}
