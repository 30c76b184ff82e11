package main

// Tiny shapes for the benchmark's own tests: same code paths, a graph
// and pages small enough to run in well under a second.
var (
	smallScale = scale{nodes: 300, edges: 700}
	burstSmall = burstShape{flows: 48, communities: 6, impacts: 4, samples: 10, impactMode: "sampled"}
	condSmall  = condShape{evidence: 4, zipf: 1.0, cycle: 8, flows: 6, comms: 2, reFlows: 2, reComms: 1, samples: 5}
)
