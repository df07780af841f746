// Package feeds generates the synthetic multi-exchange cryptocurrency price
// data standing in for the paper's two-week Bitcoin price collection
// (§VI-A, Fig. 4). A single ground-truth price follows geometric Brownian
// motion; each of the ten named exchanges quotes the truth plus a small
// per-exchange bias and fat-tailed idiosyncratic noise (loggamma-class, as
// the paper infers from its Fréchet range fit). The per-minute range
// δ = max−min across exchanges then follows a Fréchet law, reproducing the
// paper's histogram shape and fit.
package feeds

import (
	"fmt"
	"math"
	"math/rand"

	"delphi/internal/dist"
)

// ExchangeNames are the ten exchanges polled in the paper's study.
var ExchangeNames = []string{
	"binance", "coinbase", "crypto.com", "gate.io", "huobi",
	"mexc", "poloniex", "bybit", "kucoin", "kraken",
}

// Exchange models one price source.
type Exchange struct {
	// Name identifies the exchange.
	Name string
	// Bias is the exchange's persistent quote offset in dollars.
	Bias float64
	// NoiseScale is the scale of the fat-tailed idiosyncratic noise.
	NoiseScale float64
	// TailAlpha is the noise tail index.
	TailAlpha float64
}

// noise draws the exchange's symmetric fat-tailed quote noise: a signed
// Pareto magnitude, whose tail index α carries through to the Fréchet tail
// of the per-minute range.
func (e Exchange) noise(rng *rand.Rand) float64 {
	p := dist.Pareto{Xm: e.NoiseScale, Alpha: e.TailAlpha}
	mag := p.Sample(rng)
	if rng.Intn(2) == 0 {
		return -mag
	}
	return mag
}

// Market is the synthetic multi-exchange market.
type Market struct {
	rng       *rand.Rand
	price     float64
	volPerMin float64
	exchanges []Exchange
}

// Snapshot is one per-minute observation across all exchanges.
type Snapshot struct {
	// Minute is the tick index.
	Minute int
	// True is the ground-truth price.
	True float64
	// Quotes are the per-exchange quoted prices, aligned with the market's
	// exchange list.
	Quotes []float64
}

// Range returns δ = max − min over the snapshot's quotes.
func (s Snapshot) Range() float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, q := range s.Quotes {
		lo = math.Min(lo, q)
		hi = math.Max(hi, q)
	}
	return hi - lo
}

// Config tunes the synthetic market.
type Config struct {
	// BasePrice is the starting price (the paper evaluates around 40 000$).
	BasePrice float64
	// AnnualVol is the GBM annualised volatility (e.g. 0.6 for BTC).
	AnnualVol float64
	// NoiseScale is the per-exchange noise scale in dollars; calibrated so
	// the mean per-minute range is ≈25$ as in Fig. 4.
	NoiseScale float64
	// TailAlpha is the noise tail index (the paper fits α≈4.41).
	TailAlpha float64
}

// DefaultConfig returns the calibration that reproduces Fig. 4's shape.
func DefaultConfig() Config {
	return Config{BasePrice: 40000, AnnualVol: 0.6, NoiseScale: 6, TailAlpha: 4.41}
}

// NewMarket creates a market with the ten standard exchanges.
func NewMarket(cfg Config, seed int64) (*Market, error) {
	if cfg.BasePrice <= 0 || cfg.NoiseScale <= 0 || cfg.TailAlpha <= 2 {
		return nil, fmt.Errorf("feeds: invalid config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(seed))
	exs := make([]Exchange, len(ExchangeNames))
	for i, name := range ExchangeNames {
		exs[i] = Exchange{
			Name:       name,
			Bias:       (rng.Float64() - 0.5) * 5, // persistent ±2.5$ skew
			NoiseScale: cfg.NoiseScale * (0.8 + 0.4*rng.Float64()),
			TailAlpha:  cfg.TailAlpha,
		}
	}
	// Per-minute GBM volatility from annualised volatility.
	volPerMin := cfg.AnnualVol / math.Sqrt(365*24*60)
	return &Market{rng: rng, price: cfg.BasePrice, volPerMin: volPerMin, exchanges: exs}, nil
}

// Tick advances the market one minute and returns the snapshot.
func (m *Market) Tick(minute int) Snapshot {
	// GBM step.
	z := m.rng.NormFloat64()
	m.price *= math.Exp(-0.5*m.volPerMin*m.volPerMin + m.volPerMin*z)
	quotes := make([]float64, len(m.exchanges))
	for i, e := range m.exchanges {
		quotes[i] = m.price + e.Bias + e.noise(m.rng)
	}
	return Snapshot{Minute: minute, True: m.price, Quotes: quotes}
}

// Collect returns n consecutive per-minute snapshots. Two weeks of data as
// in the paper is n = 14*24*60 = 20160.
func (m *Market) Collect(n int) []Snapshot {
	out := make([]Snapshot, n)
	for i := range out {
		out[i] = m.Tick(i)
	}
	return out
}

// Ranges extracts the per-minute δ values from snapshots.
func Ranges(snaps []Snapshot) []float64 {
	out := make([]float64, len(snaps))
	for i, s := range snaps {
		out[i] = s.Range()
	}
	return out
}

// TwoWeeks is the snapshot count of the paper's collection period.
const TwoWeeks = 14 * 24 * 60
