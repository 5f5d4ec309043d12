//! Fixed-point money values.
//!
//! Business rules in the paper compare purchase-order amounts against
//! approval thresholds (`PO.amount >= 55000`). Floating point is unsuitable
//! for such comparisons, so amounts are stored as integer *cents* together
//! with a currency code.

use crate::error::{DocumentError, Result};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// ISO-4217-style currency code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Currency {
    /// United States dollar.
    Usd,
    /// Euro.
    Eur,
    /// Pound sterling.
    Gbp,
    /// Japanese yen (still scaled by 100 internally for uniformity).
    Jpy,
}

impl Currency {
    /// Three-letter code as used on the wire.
    pub fn code(self) -> &'static str {
        match self {
            Self::Usd => "USD",
            Self::Eur => "EUR",
            Self::Gbp => "GBP",
            Self::Jpy => "JPY",
        }
    }

    /// Parses a three-letter code (case-insensitive).
    pub fn parse(code: &str) -> Result<Self> {
        [Self::Usd, Self::Eur, Self::Gbp, Self::Jpy]
            .into_iter()
            .find(|c| c.code().eq_ignore_ascii_case(code))
            .ok_or_else(|| DocumentError::Money {
                reason: format!("unknown currency `{}`", code.to_ascii_uppercase()),
            })
    }
}

impl fmt::Display for Currency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// An exact monetary amount: integer cents plus currency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Money {
    cents: i64,
    currency: Currency,
}

impl Money {
    /// Builds a value from whole currency units (e.g. dollars).
    pub fn from_units(units: i64, currency: Currency) -> Self {
        Self { cents: units * 100, currency }
    }

    /// Builds a value from cents.
    pub fn from_cents(cents: i64, currency: Currency) -> Self {
        Self { cents, currency }
    }

    /// Zero in the given currency.
    pub fn zero(currency: Currency) -> Self {
        Self { cents: 0, currency }
    }

    /// The amount in cents.
    pub fn cents(self) -> i64 {
        self.cents
    }

    /// The amount in whole units, truncating cents.
    pub fn units(self) -> i64 {
        self.cents / 100
    }

    /// The currency of this amount.
    pub fn currency(self) -> Currency {
        self.currency
    }

    /// Checked addition; fails across currencies or on overflow.
    pub fn checked_add(self, other: Money) -> Result<Money> {
        self.require_same_currency(other, "add")?;
        let cents = self
            .cents
            .checked_add(other.cents)
            .ok_or_else(|| DocumentError::Money { reason: "overflow in addition".into() })?;
        Ok(Self { cents, currency: self.currency })
    }

    /// Checked subtraction; fails across currencies or on overflow.
    pub fn checked_sub(self, other: Money) -> Result<Money> {
        self.require_same_currency(other, "subtract")?;
        let cents = self
            .cents
            .checked_sub(other.cents)
            .ok_or_else(|| DocumentError::Money { reason: "overflow in subtraction".into() })?;
        Ok(Self { cents, currency: self.currency })
    }

    /// Checked multiplication by a quantity (e.g. line quantity × unit price).
    pub fn checked_mul(self, factor: i64) -> Result<Money> {
        let cents = self
            .cents
            .checked_mul(factor)
            .ok_or_else(|| DocumentError::Money { reason: "overflow in multiplication".into() })?;
        Ok(Self { cents, currency: self.currency })
    }

    /// Comparison that refuses to compare across currencies.
    pub fn checked_cmp(self, other: Money) -> Result<Ordering> {
        self.require_same_currency(other, "compare")?;
        Ok(self.cents.cmp(&other.cents))
    }

    /// Parses `"1234.56 USD"` or `"1234 USD"`.
    pub fn parse(text: &str) -> Result<Self> {
        Self::parse_words(text, None)
    }

    /// Parses a bare decimal amount (`"1234.56"`) in `currency`, exactly as
    /// [`parse`](Self::parse) reads `"1234.56 USD"`, errors included.
    pub(crate) fn parse_decimal(text: &str, currency: Currency) -> Result<Self> {
        Self::parse_words(text, Some(currency))
    }

    /// Parses the words of `text`, followed by `currency`'s code when the
    /// currency comes apart. The literal that errors quote is rendered only
    /// when one is raised.
    fn parse_words(text: &str, currency: Option<Currency>) -> Result<Self> {
        let literal = || match currency {
            Some(c) => format!("{text} {}", c.code()),
            None => text.to_string(),
        };
        let mut words = text.split_whitespace().chain(currency.map(Currency::code));
        let amount = words.next().ok_or_else(|| DocumentError::Money {
            reason: format!("empty money literal `{}`", literal()),
        })?;
        let code = words.next().ok_or_else(|| DocumentError::Money {
            reason: format!("missing currency in `{}`", literal()),
        })?;
        if words.next().is_some() {
            return Err(DocumentError::Money {
                reason: format!("trailing content in money literal `{}`", literal()),
            });
        }
        let currency = Currency::parse(code)?;
        let (sign, digits) = match amount.strip_prefix('-') {
            Some(rest) => (-1, rest),
            None => (1, amount),
        };
        let (units_str, cents_str) = match digits.split_once('.') {
            Some((u, c)) => (u, c),
            None => (digits, ""),
        };
        if cents_str.len() > 2 {
            return Err(DocumentError::Money {
                reason: format!("more than two decimal places in `{}`", literal()),
            });
        }
        let units: i64 = units_str
            .parse()
            .map_err(|_| DocumentError::Money { reason: format!("bad amount `{amount}`") })?;
        let cents_part: i64 = if cents_str.is_empty() {
            0
        } else {
            let parsed: i64 = cents_str
                .parse()
                .map_err(|_| DocumentError::Money { reason: format!("bad cents `{cents_str}`") })?;
            if cents_str.len() == 1 {
                parsed * 10
            } else {
                parsed
            }
        };
        let cents =
            units.checked_mul(100).and_then(|c| c.checked_add(cents_part)).ok_or_else(|| {
                DocumentError::Money { reason: format!("overflow in `{}`", literal()) }
            })?;
        Ok(Self { cents: sign * cents, currency })
    }

    fn require_same_currency(self, other: Money, op: &str) -> Result<()> {
        if self.currency == other.currency {
            Ok(())
        } else {
            Err(DocumentError::Money {
                reason: format!(
                    "cannot {op} {} and {}",
                    self.currency.code(),
                    other.currency.code()
                ),
            })
        }
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.cents < 0 { "-" } else { "" };
        let abs = self.cents.unsigned_abs();
        write!(f, "{sign}{}.{:02} {}", abs / 100, abs % 100, self.currency.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_display() {
        for text in ["0.00 USD", "1234.56 EUR", "-17.05 GBP", "55000.00 USD"] {
            let m = Money::parse(text).unwrap();
            assert_eq!(m.to_string(), text);
        }
    }

    #[test]
    fn parse_accepts_whole_units_and_single_decimal() {
        assert_eq!(Money::parse("12 USD").unwrap().cents(), 1200);
        assert_eq!(Money::parse("12.5 USD").unwrap().cents(), 1250);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Money::parse("12.345 USD").is_err());
        assert!(Money::parse("12").is_err());
        assert!(Money::parse("x USD").is_err());
        assert!(Money::parse("12 USD extra").is_err());
        assert!(Money::parse("12 XYZ").is_err());
    }

    #[test]
    fn a_bare_decimal_parses_and_fails_like_its_literal() {
        for text in ["12.5", "-0.07", "", " ", "1 2", "12.345", "x", "1.x", "99999999999999999999"]
        {
            assert_eq!(
                Money::parse_decimal(text, Currency::Eur),
                Money::parse(&format!("{text} EUR")),
                "{text:?}"
            );
        }
        assert_eq!(
            Currency::parse("xyz").unwrap_err().to_string(),
            "money error: unknown currency `XYZ`"
        );
        assert_eq!(Currency::parse("gbp").unwrap(), Currency::Gbp);
    }

    #[test]
    fn arithmetic_respects_currency() {
        let a = Money::from_units(10, Currency::Usd);
        let b = Money::from_units(3, Currency::Usd);
        assert_eq!(a.checked_add(b).unwrap().units(), 13);
        assert_eq!(a.checked_sub(b).unwrap().units(), 7);
        let e = Money::from_units(1, Currency::Eur);
        assert!(a.checked_add(e).is_err());
        assert!(a.checked_cmp(e).is_err());
    }

    #[test]
    fn mul_scales_cents() {
        let unit_price = Money::from_cents(1999, Currency::Usd);
        assert_eq!(unit_price.checked_mul(3).unwrap().cents(), 5997);
    }

    #[test]
    fn overflow_is_detected() {
        let big = Money::from_cents(i64::MAX, Currency::Usd);
        assert!(big.checked_add(Money::from_cents(1, Currency::Usd)).is_err());
        assert!(big.checked_mul(2).is_err());
    }

    #[test]
    fn comparison_orders_amounts() {
        let a = Money::from_units(40_000, Currency::Usd);
        let b = Money::from_units(55_000, Currency::Usd);
        assert_eq!(a.checked_cmp(b).unwrap(), Ordering::Less);
    }
}
