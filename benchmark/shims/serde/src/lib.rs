//! Offline stand-in for `serde` 1.x: the trait shapes the one hand-written
//! impl in the pgrid crates (`BitPath`) needs, plus no-op derives.

pub use serde_derive::{Deserialize, Serialize};

pub trait Serializer: Sized {
    type Ok;
    type Error: ser::Error;

    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error>;
}

pub trait Serialize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

pub trait Deserializer<'de>: Sized {
    type Error: de::Error;

    fn deserialize_string(self) -> Result<String, Self::Error>;
}

pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_string()
    }
}

pub mod ser {
    pub use super::{Serialize, Serializer};

    pub trait Error: Sized + std::fmt::Debug {
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }
}

pub mod de {
    pub use super::{Deserialize, Deserializer};

    pub trait Error: Sized + std::fmt::Debug {
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }

    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}

    impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}
}
