//! Special functions needed by the hypothesis tests.
//!
//! Implemented from the classical series/continued-fraction expansions
//! (Lanczos approximation for `ln Γ`, Numerical-Recipes-style `gammp`/`gammq`)
//! so that the crate has no third-party math dependency.  Accuracy is ~1e-10
//! over the ranges exercised by the tests, far beyond what an α = 0.05
//! decision needs.

/// Natural logarithm of the gamma function, `ln Γ(x)` for `x > 0`.
fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos approximation (g = 7, n = 9 coefficients).
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + 7.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma function `P(a, x)`.
fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_p requires a > 0");
    assert!(x >= 0.0, "gamma_p requires x >= 0");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_continued_fraction(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 − P(a, x)`.
fn gamma_q(a: f64, x: f64) -> f64 {
    1.0 - gamma_p(a, x)
}

fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

fn gamma_q_continued_fraction(a: f64, x: f64) -> f64 {
    const FPMIN: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Survival function of the chi-square distribution with `dof` degrees of
/// freedom: `P(X ≥ x)`.
pub fn chi_square_sf(x: f64, dof: f64) -> f64 {
    assert!(dof > 0.0, "chi_square_sf requires dof > 0");
    if x <= 0.0 {
        return 1.0;
    }
    gamma_q(dof / 2.0, x / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        assert!(close(ln_gamma(1.0), 0.0, 1e-12));
        assert!(close(ln_gamma(2.0), 0.0, 1e-12));
        assert!(close(ln_gamma(5.0), (24.0f64).ln(), 1e-10));
        assert!(close(ln_gamma(11.0), (3_628_800.0f64).ln(), 1e-9));
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = sqrt(pi).
        assert!(close(ln_gamma(0.5), 0.5 * std::f64::consts::PI.ln(), 1e-10));
    }

    #[test]
    fn gamma_p_q_sum_to_one() {
        for &(a, x) in &[(0.5, 0.3), (2.0, 1.0), (5.0, 10.0), (10.0, 3.0)] {
            assert!(close(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-12));
        }
    }

    #[test]
    fn chi_square_sf_known_values() {
        // Reference values from standard chi-square tables.
        assert!(close(chi_square_sf(3.841, 1.0), 0.05, 2e-3));
        assert!(close(chi_square_sf(5.991, 2.0), 0.05, 2e-3));
        assert!(close(chi_square_sf(0.0, 3.0), 1.0, 1e-12));
        assert!(close(chi_square_sf(18.307, 10.0), 0.05, 2e-3));
    }

    #[test]
    fn chi_square_sf_is_monotone_decreasing() {
        let mut last = 1.0;
        for i in 1..50 {
            let x = i as f64 * 0.5;
            let sf = chi_square_sf(x, 4.0);
            assert!(sf <= last + 1e-12);
            last = sf;
        }
    }

    #[test]
    #[should_panic(expected = "dof > 0")]
    fn zero_dof_rejected() {
        let _ = chi_square_sf(1.0, 0.0);
    }
}
