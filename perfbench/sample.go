package main

import "math/rand"

// Inputs are drawn with stratified sampling: op kinds come from a
// shuffled deck holding each kind in its exact share, and past instants
// from a golden-ratio sequence with a seeded start. Every seed still
// gives its own inputs, but no seed gets a mix or a spread of instants
// that is off by chance, so the spread between seeds measures the
// program rather than the draw.

// deck deals kinds in fixed proportions, reshuffled every round.
type deck struct {
	rng   *rand.Rand
	cards []int
	i     int
}

// newDeck deals kind k counts[k] times per round.
func newDeck(rng *rand.Rand, counts ...int) *deck {
	d := &deck{rng: rng}
	for k, n := range counts {
		for j := 0; j < n; j++ {
			d.cards = append(d.cards, k)
		}
	}
	d.i = len(d.cards)
	return d
}

// newPercentDeck deals 0..99 once each per round, so `op < n` branches
// take exactly their percentage of every hundred ops.
func newPercentDeck(rng *rand.Rand) *deck {
	ones := make([]int, 100)
	for i := range ones {
		ones[i] = 1
	}
	return newDeck(rng, ones...)
}

func (d *deck) next() int {
	if d.i == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.i = 0
	}
	d.i++
	return d.cards[d.i-1]
}

// golden is a low-discrepancy sequence in [0, 1).
type golden struct{ x float64 }

func newGolden(rng *rand.Rand) *golden { return &golden{rng.Float64()} }

// pick returns an index in [0, n).
func (g *golden) pick(n int) int {
	g.x += 0.6180339887498949
	if g.x >= 1 {
		g.x--
	}
	i := int(g.x * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}
