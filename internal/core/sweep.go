package core

import (
	"fmt"
	"io"
	"math"
	"time"

	"starvation/internal/endpoint"
	"starvation/internal/network"
	"starvation/internal/units"
)

// SweepPoint is one column of a rate-delay graph (Figures 2 and 3).
type SweepPoint struct {
	C          units.Rate
	DMin, DMax time.Duration
	Delta      time.Duration
	Efficiency float64
	// PredLo and PredHi are the band the CCA's contract predicts at C;
	// both are 0 when it predicts none.
	PredLo, PredHi time.Duration
}

// Sweep is a measured rate-delay graph for one CCA.
type Sweep struct {
	Name string
	Rm   time.Duration
	// Contract says where the predicted bands come from: "closed form",
	// "fitted" or "not delay-convergent".
	Contract string
	Points   []SweepPoint
}

// LogSpace returns n rates geometrically spaced over [lo, hi] inclusive.
func LogSpace(lo, hi units.Rate, n int) []units.Rate {
	if n < 2 {
		return []units.Rate{lo}
	}
	out := make([]units.Rate, n)
	ratio := math.Pow(float64(hi)/float64(lo), 1/float64(n-1))
	v := float64(lo)
	for i := range out {
		out[i] = units.Rate(v)
		v *= ratio
	}
	return out
}

// RateDelaySweep measures the equilibrium delay interval of the registered
// CCA name at each link rate, regenerating one panel of Figure 3, and puts
// beside each the band its contract predicts. Lower rates get longer runs
// so slow flows still converge.
//
// The points run in rate order through one network.Session (opts.Session,
// or one the sweep creates), so the sweep wires its network once; the
// measured values are those of one-shot runs. A cancelled opts.Ctx halts
// the point in flight and ends the sweep before the next one; the partial
// sweep is returned and callers observe the cancellation themselves.
func RateDelaySweep(name string, rm time.Duration, rates []units.Rate, opts MeasureOpts) *Sweep {
	mk := newCCA(name)
	opts.fill()
	if opts.Session == nil {
		opts.Session = network.NewSession()
	}
	k := contracts[name]
	sw := &Sweep{Name: name, Rm: rm, Contract: k.kind(), Points: make([]SweepPoint, len(rates))}
	for i, c := range rates {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			break
		}
		o := opts
		// Ensure the run spans enough packets and RTTs at low rates: at
		// least ~400 packet-times and 200 RTTs.
		if min := 400 * c.TxTime(endpoint.DefaultMSS); o.Duration < min {
			o.Duration = min
		}
		if min := 200 * rm; o.Duration < min {
			o.Duration = min
		}
		conv := measure(mk(), c, rm, o)
		sw.Points[i] = SweepPoint{
			C:          c,
			DMin:       conv.DMin,
			DMax:       conv.DMax,
			Delta:      conv.Delta,
			Efficiency: conv.efficiency(),
		}
		if k.band != nil {
			sw.Points[i].PredLo, sw.Points[i].PredHi = k.band(c, rm)
		}
	}
	return sw
}

// DeltaMax returns the largest δ(C) over the sweep restricted to rates
// above lambda — the δmax bound of Definition 1(2).
func (s *Sweep) DeltaMax(lambda units.Rate) time.Duration {
	var dm time.Duration
	for _, p := range s.Points {
		if p.C > lambda && p.Delta > dm {
			dm = p.Delta
		}
	}
	return dm
}

// DMaxBound returns the largest dmax(C) over rates above lambda.
func (s *Sweep) DMaxBound(lambda units.Rate) time.Duration {
	var dm time.Duration
	for _, p := range s.Points {
		if p.C > lambda && p.DMax > dm {
			dm = p.DMax
		}
	}
	return dm
}

// WriteCSV emits the sweep as CSV; the predicted band's columns are empty
// where the contract predicts none.
func (s *Sweep) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "rate_mbps,dmin_ms,dmax_ms,delta_ms,efficiency,pred_dmin_ms,pred_dmax_ms\n"); err != nil {
		return err
	}
	for _, p := range s.Points {
		pred := ","
		if p.PredHi > 0 {
			pred = fmt.Sprintf("%.4f,%.4f", float64(p.PredLo)/1e6, float64(p.PredHi)/1e6)
		}
		if _, err := fmt.Fprintf(w, "%.4g,%.4f,%.4f,%.4f,%.4f,%s\n",
			p.C.Mbit(),
			float64(p.DMin)/1e6, float64(p.DMax)/1e6, float64(p.Delta)/1e6,
			p.Efficiency, pred); err != nil {
			return err
		}
	}
	return nil
}

// String renders the sweep as an aligned table, the measured band beside
// the predicted one.
func (s *Sweep) String() string {
	out := fmt.Sprintf("%s (Rm=%v, contract: %s)\n%12s %12s %12s %10s %6s %12s %12s\n",
		s.Name, s.Rm, s.Contract, "rate", "dmin", "dmax", "delta", "eff", "pred dmin", "pred dmax")
	for _, p := range s.Points {
		predLo, predHi := "-", "-"
		if p.PredHi > 0 {
			predLo, predHi = p.PredLo.Round(10*time.Microsecond).String(), p.PredHi.Round(10*time.Microsecond).String()
		}
		out += fmt.Sprintf("%12s %12s %12s %10s %6.2f %12s %12s\n",
			p.C, p.DMin.Round(10*time.Microsecond), p.DMax.Round(10*time.Microsecond),
			p.Delta.Round(10*time.Microsecond), p.Efficiency, predLo, predHi)
	}
	return out
}
