package dist

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestLogBetaKnownValues(t *testing.T) {
	cases := []struct {
		a, b, want float64
	}{
		{1, 1, 0},                 // B(1,1)=1
		{2, 2, math.Log(1.0 / 6)}, // B(2,2)=1/6
		{5, 1, math.Log(1.0 / 5)}, // B(5,1)=1/5
		{2, 3, math.Log(1.0 / 12)},
		{0.5, 0.5, math.Log(math.Pi)}, // B(1/2,1/2)=pi
	}
	for _, c := range cases {
		if got := LogBeta(c.a, c.b); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("LogBeta(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLogChoose(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 2, math.Log(10)},
		{10, 0, 0},
		{10, 10, 0},
		{52, 5, math.Log(2598960)},
	}
	for _, c := range cases {
		if got := LogChoose(c.n, c.k); !almostEqual(got, c.want, 1e-10) {
			t.Errorf("LogChoose(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
	if !math.IsInf(LogChoose(5, 6), -1) || !math.IsInf(LogChoose(5, -1), -1) {
		t.Error("LogChoose out of range should be -Inf")
	}
}

func TestRegIncBetaBoundaries(t *testing.T) {
	if got := RegIncBeta(0, 2, 3); got != 0 {
		t.Errorf("I_0 = %v", got)
	}
	if got := RegIncBeta(1, 2, 3); got != 1 {
		t.Errorf("I_1 = %v", got)
	}
}

func TestRegIncBetaUniform(t *testing.T) {
	// Beta(1,1) CDF is the identity.
	for _, x := range []float64{0.1, 0.25, 0.5, 0.77, 0.99} {
		if got := RegIncBeta(x, 1, 1); !almostEqual(got, x, 1e-12) {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// Beta(2,1) CDF is x^2; Beta(1,2) CDF is 1-(1-x)^2 = 2x - x^2.
	for _, x := range []float64{0.1, 0.3, 0.5, 0.9} {
		if got := RegIncBeta(x, 2, 1); !almostEqual(got, x*x, 1e-12) {
			t.Errorf("I_%v(2,1) = %v, want %v", x, got, x*x)
		}
		want := 2*x - x*x
		if got := RegIncBeta(x, 1, 2); !almostEqual(got, want, 1e-12) {
			t.Errorf("I_%v(1,2) = %v, want %v", x, got, want)
		}
	}
	// Symmetric case: I_0.5(a,a) = 0.5 for any a.
	for _, a := range []float64{0.5, 1, 3, 17, 200} {
		if got := RegIncBeta(0.5, a, a); !almostEqual(got, 0.5, 1e-10) {
			t.Errorf("I_0.5(%v,%v) = %v", a, a, got)
		}
	}
}

func TestRegIncBetaSymmetry(t *testing.T) {
	// I_x(a,b) = 1 - I_{1-x}(b,a)
	err := quick.Check(func(xr, ar, br uint16) bool {
		x := float64(xr%999+1) / 1000
		a := float64(ar%500)/10 + 0.1
		b := float64(br%500)/10 + 0.1
		lhs := RegIncBeta(x, a, b)
		rhs := 1 - RegIncBeta(1-x, b, a)
		return almostEqual(lhs, rhs, 1e-9)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRegIncBetaMonotone(t *testing.T) {
	for _, shapes := range [][2]float64{{2, 5}, {0.7, 0.7}, {30, 4}, {100, 100}} {
		prev := -1.0
		for x := 0.0; x <= 1.0001; x += 0.01 {
			v := RegIncBeta(math.Min(x, 1), shapes[0], shapes[1])
			if v < prev-1e-12 {
				t.Fatalf("CDF not monotone at x=%v for shapes %v", x, shapes)
			}
			prev = v
		}
	}
}

// quantileRoundTrips reports whether x is the p-quantile of Beta(a,b)
// to float precision: its CDF is within 1e-6 of p, or p lies between the
// CDFs of x's neighbouring floats. 1e-6 rather than 1e-8: for shapes < 1
// the density is singular at the endpoints, so near x≈0 or x≈1 an
// ulp-accurate quantile still round-trips with p-space error of ~1e-7
// (e.g. p=0.99, a=17.1, b=0.2 puts x within 4e-12 of 1 and back-maps
// 2e-8 off). Closer to 1 no float meets even 1e-6: the 0.998-quantile of
// Beta(30.1, 0.2) lies 6.7e-16 below 1, where the CDFs of neighbouring
// floats lie 6e-5 apart. There the neighbouring floats must bracket p. A
// genuinely broken inverse misses by far more.
func quantileRoundTrips(x, p, a, b float64) bool {
	if x < 0 || x > 1 {
		return false
	}
	if almostEqual(RegIncBeta(x, a, b), p, 1e-6) {
		return true
	}
	return RegIncBeta(math.Nextafter(x, 0), a, b) <= p && p <= RegIncBeta(math.Nextafter(x, 1), a, b)
}

func TestInvRegIncBetaRoundTrip(t *testing.T) {
	err := quick.Check(func(pr, ar, br uint16) bool {
		p := float64(pr%998+1) / 1000
		a := float64(ar%300)/10 + 0.2
		b := float64(br%300)/10 + 0.2
		return quantileRoundTrips(InvRegIncBeta(p, a, b), p, a, b)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInvRegIncBetaTails sweeps the region where the round trip's random
// draws used to fail: every p of TestInvRegIncBetaRoundTrip's grid, one
// shape on its grid from 0.2 to 1.7 and the other from 0.2 to 1.7 or
// spread to 30.1, in both orders. A small shape with a small p puts the
// quantile at 1e-15 and below (p = 0.002, a = 0.2, b = 25.8 at 8.2e-16),
// and its mirror puts it as close to 1.
func TestInvRegIncBetaTails(t *testing.T) {
	var others []float64
	for i := 2; i <= 17; i++ {
		others = append(others, float64(i)/10)
	}
	others = append(others, 2.5, 5.8, 12.3, 25.8, 30.1)
	for i := 2; i <= 17; i++ {
		small := float64(i) / 10
		t.Run(fmt.Sprint(small), func(t *testing.T) {
			t.Parallel()
			for _, other := range others {
				for _, ab := range [][2]float64{{small, other}, {other, small}} {
					for pr := 1; pr <= 998; pr++ {
						p, a, b := float64(pr)/1000, ab[0], ab[1]
						if x := InvRegIncBeta(p, a, b); !quantileRoundTrips(x, p, a, b) {
							t.Fatalf("InvRegIncBeta(%v, %v, %v) = %v, whose CDF is %v", p, a, b, x, RegIncBeta(x, a, b))
						}
					}
				}
			}
		})
	}
}

func TestInvRegIncBetaBoundaries(t *testing.T) {
	if InvRegIncBeta(0, 3, 4) != 0 {
		t.Error("quantile(0) != 0")
	}
	if InvRegIncBeta(1, 3, 4) != 1 {
		t.Error("quantile(1) != 1")
	}
}

func TestRegIncBetaLargeShapes(t *testing.T) {
	// With huge symmetric shapes, mass concentrates at 0.5.
	if got := RegIncBeta(0.49, 5000, 5000); got > 0.05 {
		t.Errorf("I_0.49(5000,5000) = %v, want near 0", got)
	}
	if got := RegIncBeta(0.51, 5000, 5000); got < 0.95 {
		t.Errorf("I_0.51(5000,5000) = %v, want near 1", got)
	}
}

func TestErfApproxCDF(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{3, 0.9986501019683699},
	}
	for _, c := range cases {
		if got := ErfApproxCDF(c.x); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Phi(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}
