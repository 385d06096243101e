// Bichromatic reverse k-nearest neighbors: the data is split into services
// and clients, and the reverse neighbors of a service are the clients that
// count it among their k nearest services (paper Section 1: "one object
// type represents services, and the other represents clients"). The classic
// use is facility influence: which customers would a new store capture?
//
// The bichromatic query reduces to the monochromatic machinery of this
// library: index the services for forward kNN, and a client c belongs to
// the influence set of service q iff d(c,q) is within c's k-th nearest
// service distance.
//
//	go run ./examples/bichromatic
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	repro "repro"
	"repro/internal/dataset"
)

const (
	nServices = 60
	nClients  = 8000
	k         = 3 // clients patronize their three nearest stores
)

func main() {
	// Stores sit on a city grid; customers cluster around neighborhoods.
	services := dataset.Uniform("stores", nServices, 2, 21)
	clients := dataset.GaussianMixture("customers", nClients, 2, 12, 0.04, 22)

	// Index the services: every client's k nearest stores come from here.
	s, err := repro.New(services.Points, repro.WithScale(6))
	if err != nil {
		log.Fatal(err)
	}

	// Influence set of every existing store: clients having it among
	// their k nearest stores.
	influence := make([]int, nServices)
	for _, c := range clients.Points {
		nn, err := s.KNN(c, k)
		if err != nil {
			log.Fatal(err)
		}
		for _, nb := range nn {
			influence[nb.ID]++
		}
	}
	order := make([]int, nServices)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return influence[order[a]] > influence[order[b]] })
	fmt.Printf("top stores by bichromatic R%dNN influence (%d customers):\n", k, nClients)
	for _, id := range order[:5] {
		fmt.Printf("  store %2d at (%.2f, %.2f): %4d customers\n",
			id, services.Points[id][0], services.Points[id][1], influence[id])
	}

	// Site selection: where would a new store capture the most
	// customers? A candidate site's influence is its bichromatic RkNN
	// set: clients whose current k-th nearest store is farther than the
	// candidate.
	rng := rand.New(rand.NewSource(23))
	bestGain, bestSite := -1, []float64{0, 0}
	for trial := 0; trial < 25; trial++ {
		site := []float64{rng.Float64(), rng.Float64()}
		gain := 0
		for _, c := range clients.Points {
			nn, err := s.KNN(c, k)
			if err != nil {
				log.Fatal(err)
			}
			kth := nn[len(nn)-1]
			if dist2(c, site) <= kth.Dist*kth.Dist {
				gain++
			}
		}
		if gain > bestGain {
			bestGain, bestSite = gain, site
		}
	}
	fmt.Printf("\nbest of 25 candidate sites: (%.2f, %.2f) would enter the top-%d of %d customers\n",
		bestSite[0], bestSite[1], k, bestGain)
}

func dist2(a, b []float64) float64 {
	dx, dy := a[0]-b[0], a[1]-b[1]
	return dx*dx + dy*dy
}
