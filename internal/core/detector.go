package core

import (
	"nimbus/internal/fft"
	"nimbus/internal/sim"
	"nimbus/internal/stats"
)

// DetectorConfig parameterizes the elasticity detector (§3.4).
type DetectorConfig struct {
	// SampleInterval is the spacing of ẑ samples (the paper's CCP
	// implementation reports measurements every 10 ms).
	SampleInterval sim.Time
	// FFTDuration is the window over which the FFT is computed (5 s).
	FFTDuration sim.Time
	// Threshold is ηthresh; cross traffic with η >= Threshold is
	// classified elastic (2, chosen in Fig. 6).
	Threshold float64
}

// DefaultDetectorConfig returns the paper's parameters: 10 ms samples,
// 5 s FFT window, ηthresh = 2.
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{
		SampleInterval: 10 * sim.Millisecond,
		FFTDuration:    5 * sim.Second,
		Threshold:      2,
	}
}

// Detector decides whether cross traffic contains elastic (ACK-clocked)
// flows by looking for periodicity at the pulse frequency in the
// cross-traffic rate estimate ẑ (§3.3). η (Eq. 3) compares the FFT
// magnitude at fp with the largest magnitude in (fp, 2fp); a pronounced
// peak at fp only appears when the cross traffic reacts to the pulses.
//
// The detector is built to be allocation-free per tick: it owns an
// fft.Plan (precomputed permutation and twiddle tables) plus scratch
// buffers, and it caches the spectrum per push generation, so the first
// spectral read after AddSample pays one in-place FFT and every further
// read in the same tick — a watcher probing both pulse frequencies, the
// multi-pulser check, the η guard's Mean — is free.
type Detector struct {
	cfg  DetectorConfig
	ring *stats.Ring
	buf  []float64

	plan *fft.Plan
	// Cached per-generation spectrum. spec.Mag is owned by the detector
	// and overwritten at the first read after the next AddSample; callers
	// must not retain it across samples.
	spec     fft.Spectrum
	specMean float64 // window mean computed with the snapshot, for Mean()
	specGen  uint64
	haveSpec bool
	gen      uint64 // bumped on every AddSample
}

// NewDetector returns a detector; zero-value fields of cfg take the
// defaults.
func NewDetector(cfg DetectorConfig) *Detector {
	def := DefaultDetectorConfig()
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = def.SampleInterval
	}
	if cfg.FFTDuration <= 0 {
		cfg.FFTDuration = def.FFTDuration
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = def.Threshold
	}
	n := int(cfg.FFTDuration / cfg.SampleInterval)
	if n < 8 {
		n = 8
	}
	return &Detector{
		cfg:  cfg,
		ring: stats.NewRing(n),
		plan: fft.NewPlan(n, 1/cfg.SampleInterval.Seconds()),
	}
}

// Config returns the detector's configuration.
func (d *Detector) Config() DetectorConfig { return d.cfg }

// AddSample appends one ẑ sample (call every SampleInterval).
func (d *Detector) AddSample(z float64) {
	d.ring.Push(z)
	d.gen++
}

// Ready reports whether a full FFT window of samples has accumulated.
func (d *Detector) Ready() bool { return d.ring.Full() }

// SampleHz returns the sampling frequency of the ẑ series.
func (d *Detector) SampleHz() float64 { return 1 / d.cfg.SampleInterval.Seconds() }

// Mean returns the mean of the samples currently in the window, O(1).
// When the cached spectrum is fresh (the common case: the η guard reads
// Mean right after Elasticity each tick) this is exactly the mean the
// spectrum's DC removal computed; otherwise it falls back to the ring's
// running windowed sum.
func (d *Detector) Mean() float64 {
	if d.haveSpec && d.specGen == d.gen {
		return d.specMean
	}
	n := d.ring.Len()
	if n == 0 {
		return 0
	}
	return d.ring.Sum() / float64(n)
}

// Spectrum returns the current one-sided magnitude spectrum of the ẑ
// window (mean removed). Useful for diagnostics and for reproducing
// Fig. 5 directly. The returned spectrum's Mag buffer is owned by the
// detector and valid until the next AddSample; repeated calls within one
// tick reuse the cached transform.
func (d *Detector) Spectrum() fft.Spectrum {
	if !d.haveSpec || d.specGen != d.gen {
		d.buf = d.ring.Snapshot(d.buf)
		d.spec, d.specMean = d.plan.AnalyzeMeanInto(d.spec, d.buf)
		d.specGen = d.gen
		d.haveSpec = true
	}
	return d.spec
}

// Elasticity computes η (Eq. 3) for pulse frequency fp: the magnitude at
// fp divided by the peak magnitude in the open band (fp, 2fp). Because
// the FFT length is a power of two, fp generally falls between bins; the
// numerator takes the peak within one bin of fp and the denominator
// starts a small guard band above fp to keep spectral leakage of the fp
// peak itself out of the denominator. A denominator of zero yields a
// large capped η.
func (d *Detector) Elasticity(fp float64) float64 {
	return d.ElasticityExcluding(fp, 0)
}

// ElasticityExcluding is Elasticity with an optional second frequency
// excluded from the denominator band (±1.5 bins). The multi-flow watcher
// protocol needs this: with a pulser at fpc and the band (fpc, 2fpc)
// containing fpd, a legitimate peak at fpd must not suppress η.
func (d *Detector) ElasticityExcluding(fp, exclude float64) float64 {
	spec := d.Spectrum()
	if len(spec.Mag) == 0 || spec.Resolution == 0 {
		return 0
	}
	res := spec.Resolution
	num := spec.PeakAround(fp, res)
	den := 0.0
	for k := range spec.Mag {
		f := float64(k) * res
		if f <= fp+2*res || f >= 2*fp-res {
			continue
		}
		if exclude > 0 && f > exclude-1.5*res && f < exclude+1.5*res {
			continue
		}
		if spec.Mag[k] > den {
			den = spec.Mag[k]
		}
	}
	const etaCap = 100
	if den <= 0 {
		if num > 0 {
			return etaCap
		}
		return 0
	}
	eta := num / den
	if eta > etaCap {
		eta = etaCap
	}
	return eta
}

// Elastic applies the hard decision rule: η >= ηthresh.
func (d *Detector) Elastic(fp float64) bool {
	return d.Elasticity(fp) >= d.cfg.Threshold
}

// Threshold returns ηthresh.
func (d *Detector) Threshold() float64 { return d.cfg.Threshold }

// WindowSamples returns the number of samples in the FFT window.
func (d *Detector) WindowSamples() int { return d.ring.Cap() }
