//! Signal strength ⇄ distance, the paper's relay-ranking signal.
//!
//! §III-C: *"We can obtain the relative distances between the UE and the
//! discovered relays through signal strength in D2D discovery."* We model
//! the standard log-distance path-loss channel
//!
//! ```text
//! RSSI(d) = P_tx − PL(d₀) − 10·n·log₁₀(d/d₀) + X_σ
//! ```
//!
//! with exponent `n` ≈ 3 indoors and optional log-normal shadowing `X_σ`.
//! [`PathLoss::estimate_distance`] inverts the deterministic part, which is
//! exactly what a phone can do: a noisy, monotone proxy for range that is
//! good enough for *ranking* relays even when the absolute estimate is off.

use hbr_sim::SimRng;

/// Received signal strength in dBm.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Rssi(pub f64);

impl Rssi {
    /// The raw dBm value.
    pub fn dbm(self) -> f64 {
        self.0
    }
}

/// Log-distance path-loss channel model.
///
/// # Examples
///
/// ```
/// use hbr_mobility::PathLoss;
///
/// let channel = PathLoss::indoor_wifi();
/// let near = channel.rssi_at(1.0);
/// let far = channel.rssi_at(10.0);
/// assert!(near.dbm() > far.dbm());
///
/// // The inverse estimator recovers the distance of a clean measurement.
/// let est = channel.estimate_distance(channel.rssi_at(5.0));
/// assert!((est - 5.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLoss {
    /// Transmit power in dBm.
    pub tx_power_dbm: f64,
    /// Path loss at the reference distance, in dB.
    pub loss_at_reference_db: f64,
    /// Reference distance in metres (conventionally 1 m).
    pub reference_m: f64,
    /// Path-loss exponent: ~2 free space, ~3 indoor, ~4 obstructed.
    pub exponent: f64,
    /// Log-normal shadowing standard deviation in dB (0 disables noise).
    pub shadowing_sigma_db: f64,
}

impl PathLoss {
    /// Typical 2.4 GHz Wi-Fi Direct indoor channel: 15 dBm transmit power,
    /// 40 dB loss at 1 m, exponent 3, 2 dB shadowing.
    pub fn indoor_wifi() -> Self {
        PathLoss {
            tx_power_dbm: 15.0,
            loss_at_reference_db: 40.0,
            reference_m: 1.0,
            exponent: 3.0,
            shadowing_sigma_db: 2.0,
        }
    }

    /// Bluetooth class-2 channel: 4 dBm transmit power, same indoor geometry.
    pub fn bluetooth() -> Self {
        PathLoss {
            tx_power_dbm: 4.0,
            loss_at_reference_db: 40.0,
            reference_m: 1.0,
            exponent: 3.0,
            shadowing_sigma_db: 2.0,
        }
    }

    /// Deterministic RSSI at `distance_m` metres (no shadowing).
    ///
    /// Distances below the reference distance are clamped to it, matching
    /// the model's validity region.
    pub fn rssi_at(&self, distance_m: f64) -> Rssi {
        let d = distance_m.max(self.reference_m);
        Rssi(
            self.tx_power_dbm
                - self.loss_at_reference_db
                - 10.0 * self.exponent * (d / self.reference_m).log10(),
        )
    }

    /// RSSI at `distance_m` with log-normal shadowing noise drawn from `rng`.
    pub fn measure(&self, distance_m: f64, rng: &mut SimRng) -> Rssi {
        let clean = self.rssi_at(distance_m);
        if self.shadowing_sigma_db == 0.0 {
            clean
        } else {
            Rssi(rng.normal(clean.0, self.shadowing_sigma_db))
        }
    }

    /// Inverts the deterministic model: the distance at which a clean
    /// measurement would produce `rssi`. This is the phone-side distance
    /// estimator used for relay ranking.
    pub fn estimate_distance(&self, rssi: Rssi) -> f64 {
        let loss = self.tx_power_dbm - self.loss_at_reference_db - rssi.0;
        self.reference_m * 10f64.powf(loss / (10.0 * self.exponent))
    }
}

impl Default for PathLoss {
    fn default() -> Self {
        PathLoss::indoor_wifi()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rssi_monotonically_decreases_with_distance() {
        let ch = PathLoss::indoor_wifi();
        let mut last = f64::INFINITY;
        for d in [1.0, 2.0, 5.0, 10.0, 50.0, 200.0] {
            let r = ch.rssi_at(d).dbm();
            assert!(r < last, "rssi should fall with distance");
            last = r;
        }
    }

    #[test]
    fn estimate_inverts_clean_measurements() {
        let ch = PathLoss::indoor_wifi();
        for d in [1.0, 3.0, 7.5, 30.0] {
            let est = ch.estimate_distance(ch.rssi_at(d));
            assert!((est - d).abs() < 1e-9, "estimate {est} for true {d}");
        }
    }

    #[test]
    fn sub_reference_distances_clamp() {
        let ch = PathLoss::indoor_wifi();
        assert_eq!(ch.rssi_at(0.1), ch.rssi_at(1.0));
        assert_eq!(ch.rssi_at(0.0), ch.rssi_at(1.0));
    }

    #[test]
    fn shadowing_preserves_ranking_on_average() {
        let ch = PathLoss::indoor_wifi();
        let mut rng = hbr_sim::SimRng::seed_from(3);
        let mut near_wins = 0;
        let trials = 200;
        for _ in 0..trials {
            let near = ch.measure(2.0, &mut rng).dbm();
            let far = ch.measure(12.0, &mut rng).dbm();
            if near > far {
                near_wins += 1;
            }
        }
        assert!(
            near_wins > trials * 9 / 10,
            "ranking should survive 2 dB shadowing most of the time ({near_wins}/{trials})"
        );
    }

    #[test]
    fn zero_sigma_measure_is_deterministic() {
        let ch = PathLoss {
            shadowing_sigma_db: 0.0,
            ..PathLoss::indoor_wifi()
        };
        let mut rng = hbr_sim::SimRng::seed_from(3);
        assert_eq!(ch.measure(4.0, &mut rng), ch.rssi_at(4.0));
    }

    #[test]
    fn bluetooth_is_weaker_than_wifi() {
        let d = 5.0;
        assert!(PathLoss::bluetooth().rssi_at(d).dbm() < PathLoss::indoor_wifi().rssi_at(d).dbm());
    }
}
