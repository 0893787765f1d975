package core

import (
	"math"
	"time"
)

// This file holds the paper's closed-form results besides the per-CCA
// delay bands (contract.go): Theorem 1's jitter threshold and the §6.3
// figure-of-merit formulas (Equations 1 and 2).

// VegasFigureOfMerit returns Equation 1: the μ+/μ− rate range over which
// the Vegas-family rate-delay function μ(d) = α/(d−Rm) keeps rates s apart
// mapped to delays D apart: (Rmax − Rm)/D · (1 − 1/s).
func VegasFigureOfMerit(rmax, rm, d time.Duration, s float64) float64 {
	if d <= 0 || s <= 1 {
		return 0
	}
	return float64(rmax-rm) / float64(d) * (1 - 1/s)
}

// ExponentialFigureOfMerit returns Equation 2's range for the paper's
// proposed mapping μ(d) = μ−·s^((Rmax−d)/D): namely s^((Rmax−Rm−D)/D).
func ExponentialFigureOfMerit(rmax, rm, d time.Duration, s float64) float64 {
	if d <= 0 || s <= 1 {
		return 0
	}
	exp := float64(rmax-rm-d) / float64(d)
	return math.Pow(s, exp)
}

// StarvationThreshold returns the jitter bound above which Theorem 1
// applies: D > 2·δmax.
func StarvationThreshold(deltaMax time.Duration) time.Duration { return 2 * deltaMax }
