// Package units provides the physical quantities used throughout the
// emulator: data rates in bits per second, byte counts, and conversions
// between them and time. Keeping these in one small package avoids the
// classic bits-vs-bytes and Mbit-vs-MByte mistakes in rate arithmetic.
package units

import (
	"fmt"
	"time"
)

// Rate is a data rate in bits per second. The zero value means "no rate"
// (interpreted by consumers as unlimited or unset, depending on context).
type Rate float64

// Rate multiples.
const (
	kbitPerSec Rate = 1e3
	mbitPerSec Rate = 1e6
	gbitPerSec Rate = 1e9
)

// Mbps returns a Rate of v megabits per second.
func Mbps(v float64) Rate { return Rate(v) * mbitPerSec }

// Gbps returns a Rate of v gigabits per second.
func Gbps(v float64) Rate { return Rate(v) * gbitPerSec }

// Mbit reports the rate in megabits per second.
func (r Rate) Mbit() float64 { return float64(r) / 1e6 }

// TxTime returns the serialization (transmission) time of a payload of the
// given size at this rate. A zero rate yields zero time, matching the
// "unlimited" interpretation of the zero value.
func (r Rate) TxTime(bytes int) time.Duration {
	if r <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) * 8 / float64(r) * float64(time.Second))
}

// Interval returns the packet spacing needed to pace packets of the given
// size at this rate. A zero or negative rate yields zero (no pacing).
func (r Rate) Interval(bytes int) time.Duration {
	return r.TxTime(bytes)
}

// String formats the rate with an appropriate SI suffix.
func (r Rate) String() string {
	switch {
	case r >= gbitPerSec:
		return fmt.Sprintf("%.3g Gbit/s", float64(r)/1e9)
	case r >= mbitPerSec:
		return fmt.Sprintf("%.3g Mbit/s", float64(r)/1e6)
	case r >= kbitPerSec:
		return fmt.Sprintf("%.3g Kbit/s", float64(r)/1e3)
	default:
		return fmt.Sprintf("%.3g bit/s", float64(r))
	}
}

// RateFromBytes returns the rate that delivers the given byte count over d.
// It returns 0 when d is not positive.
func RateFromBytes(bytes int, d time.Duration) Rate {
	if d <= 0 {
		return 0
	}
	return Rate(float64(bytes) * 8 / d.Seconds())
}

// BDPBytes returns the bandwidth-delay product in bytes for a path with the
// given bottleneck rate and round-trip time.
func BDPBytes(r Rate, rtt time.Duration) int {
	return int(float64(r) / 8 * rtt.Seconds())
}
