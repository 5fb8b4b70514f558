package core

import (
	"math"
	"testing"

	"nimbus/internal/fft"
)

// fiveHz is sample i of the warm-up signal: a 5 Hz sinusoid at the
// detector's 100 Hz sample rate.
func fiveHz(i int) float64 {
	return 48e6 + 6e6*math.Sin(2*math.Pi*5*float64(i)*0.01)
}

func warmDetector() *Detector {
	det := NewDetector(DefaultDetectorConfig())
	for i := 0; i < det.WindowSamples(); i++ {
		det.AddSample(fiveHz(i))
	}
	// Warm the spectrum cache buffers so steady state owns its memory.
	det.AddSample(48e6)
	if det.Elasticity(5) <= 0 {
		panic("warmDetector: no elasticity signal")
	}
	return det
}

// The per-tick detector work — one sample push plus one η evaluation —
// must be allocation-free once the plan and scratch buffers are warm.
func TestDetectorTickAllocFree(t *testing.T) {
	det := warmDetector()
	allocs := testing.AllocsPerRun(200, func() {
		det.AddSample(48e6)
		if det.Elasticity(5) <= 0 {
			t.Fatal("eta <= 0")
		}
	})
	if allocs > 0 {
		t.Fatalf("detector tick allocates %.2f/op in steady state, want 0", allocs)
	}
}

// The spectrum is cached per push generation: repeated spectral reads in
// one tick reuse the transform, and the next AddSample invalidates it.
func TestDetectorSpectrumCachedPerGeneration(t *testing.T) {
	det := warmDetector()
	s1 := det.Spectrum()
	s2 := det.Spectrum()
	if &s1.Mag[0] != &s2.Mag[0] {
		t.Fatal("repeated Spectrum calls recomputed into a new buffer")
	}
	at5 := s1.At(5)
	// Same-generation reads through Elasticity agree with the cache.
	if eta := det.Elasticity(5); eta <= 0 {
		t.Fatal("eta <= 0")
	}
	det.AddSample(0) // new generation: cache must refresh
	s3 := det.Spectrum()
	if s3.At(5) == at5 {
		t.Fatal("Spectrum did not refresh after AddSample")
	}
	// The refreshed cache matches a from-scratch analysis of the window.
	buf := det.ring.Snapshot(nil)
	want := fft.Analyze(buf, det.SampleHz())
	for k := range want.Mag {
		if s3.Mag[k] != want.Mag[k] {
			t.Fatalf("bin %d: cached %v, fresh %v", k, s3.Mag[k], want.Mag[k])
		}
	}
}

// Mean is O(1) both through the cached spectrum (same generation as the
// last spectral read) and through the ring's running sum, and both agree
// with a direct summation to floating-point accuracy.
func TestDetectorMeanMatchesWindow(t *testing.T) {
	det := NewDetector(DefaultDetectorConfig())
	for i := 0; i < det.WindowSamples()+137; i++ {
		det.AddSample(float64(i%91) * 1e5)
	}
	buf := det.ring.Snapshot(nil)
	direct := 0.0
	for _, v := range buf {
		direct += v
	}
	direct /= float64(len(buf))
	if got := det.Mean(); math.Abs(got-direct) > 1e-6*math.Abs(direct) {
		t.Fatalf("running-sum Mean = %v, direct = %v", got, direct)
	}
	det.Spectrum() // prime the cache; Mean must now be the exact DC mean
	if got := det.Mean(); got != direct {
		// The cached mean is computed by direct summation of the snapshot,
		// so it must match bit for bit.
		t.Fatalf("cached Mean = %v, direct = %v (want bit-identical)", got, direct)
	}
}

// BenchmarkDetectorTick is the Nimbus hot path: one ẑ sample and one η
// evaluation per 10 ms tick.
// It keeps feeding the warm-up sinusoid, continuing its phase, so the
// 5 Hz peak never ages out of the window at any b.N.
func BenchmarkDetectorTick(b *testing.B) {
	det := warmDetector()
	next := det.WindowSamples() + 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.AddSample(fiveHz(next + i))
		if det.Elasticity(5) <= 0 {
			b.Fatal("eta <= 0")
		}
	}
}
