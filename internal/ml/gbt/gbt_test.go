package gbt

import (
	"math/rand"
	"testing"
)

func TestClassifierSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var X [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		a, b := rng.Float64(), rng.Float64()
		X = append(X, []float64{a, b})
		if a+b > 1 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	c := TrainClassifier(X, y, Config{Trees: 60, Depth: 3})
	correct := 0
	for i := 0; i < 200; i++ {
		a, b := rng.Float64(), rng.Float64()
		p := c.PredictProb([]float64{a, b})
		want := 0.0
		if a+b > 1 {
			want = 1
		}
		if (p > 0.5) == (want == 1) {
			correct++
		}
	}
	if correct < 180 {
		t.Fatalf("accuracy = %d/200", correct)
	}
}

func TestClassifierProbabilitiesInRange(t *testing.T) {
	X := [][]float64{{0}, {1}, {0}, {1}}
	y := []float64{0, 1, 0, 1}
	c := TrainClassifier(X, y, Config{Trees: 10, Depth: 1, MinLeaf: 1})
	for _, x := range X {
		p := c.PredictProb(x)
		if p < 0 || p > 1 {
			t.Fatalf("prob out of range: %v", p)
		}
	}
	if c.PredictProb([]float64{1}) <= c.PredictProb([]float64{0}) {
		t.Fatal("classifier did not order classes")
	}
}

func TestConstantTargetGivesConstantPrediction(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{1, 1, 1, 1}
	c := TrainClassifier(X, y, Config{Trees: 5, Depth: 2, MinLeaf: 1})
	want := c.PredictProb([]float64{1})
	if want < 0.99 {
		t.Fatalf("all-positive prediction = %v", want)
	}
	for _, x := range []float64{2.5, 4, 10} {
		if got := c.PredictProb([]float64{x}); got != want {
			t.Fatalf("prediction at %v = %v, want constant %v", x, got, want)
		}
	}
}

func TestBadInputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty data")
		}
	}()
	TrainClassifier(nil, nil, Config{})
}
