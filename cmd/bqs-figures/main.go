// bqs-figures renders the paper's three construction figures as ASCII art
// (Figure 1: M-Grid quorum; Figure 2: RT(4,3) quorum; Figure 3: M-Path
// disjoint-path quorum under failures) and the Appendix B percolation
// crossing-probability table.
//
// Usage:
//
//	bqs-figures [-seed 3] [-d 16] [-k 1] [-trials 200]
package main

import (
	"flag"
	"fmt"
	"os"

	"bqs/internal/paper"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bqs-figures:", err)
		os.Exit(1)
	}
}

func run() error {
	seed := flag.Int64("seed", 3, "random seed for quorum selection")
	d := flag.Int("d", 16, "grid side for the percolation table")
	k := flag.Int("k", 1, "disjoint crossings required in the percolation table")
	trials := flag.Int("trials", 200, "percolation trials per point")
	flag.Parse()

	f1, err := paper.Figure1MGrid(*seed)
	if err != nil {
		return err
	}
	fmt.Println(f1)

	f2, err := paper.Figure2RT(*seed)
	if err != nil {
		return err
	}
	fmt.Println(f2)

	f3, err := paper.Figure3MPath(*seed)
	if err != nil {
		return err
	}
	fmt.Println(f3)

	perc, err := paper.PercolationFigure(*d, *k, *trials, *seed)
	if err != nil {
		return err
	}
	fmt.Println(perc)
	return nil
}
