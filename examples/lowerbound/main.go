// Lowerbound: evaluate the Theorem 3.1 counting bound m·s = Ω(n·log m)
// numerically — the paper's main result — in both constant regimes, and
// print the full size/slowdown trade-off table against the Theorem 2.1
// upper bound.
package main

import (
	"fmt"
	"log"

	universalnet "universalnet"
	"universalnet/internal/experiments"
)

func main() {
	paper := universalnet.PaperParams()
	toy := universalnet.ToyParams()

	fmt.Println("Theorem 3.1: every n-universal network of size m with slowdown s has")
	fmt.Println("m·s = Ω(n·log m); equivalently the inefficiency k = s·m/n is Ω(log m).")
	fmt.Println()

	// The bound normalizes per guest processor: k depends only on log₂ m.
	fmt.Println("k lower bound as a function of log2 m:")
	fmt.Printf("%-10s  %-18s  %-18s\n", "log2 m", "k (paper consts)", "k (toy consts)")
	for _, lm := range []float64{10, 20, 40, 64, 128, 1e5, 1e6, 4e6} {
		kp, err := paper.KLowerBound(lm)
		if err != nil {
			log.Fatal(err)
		}
		kt, err := toy.KLowerBound(lm)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10.0f  %-18.3f  %-18.3f\n", lm, kp, kt)
	}
	fmt.Println()
	fmt.Println("(The paper's own constants — q=384, r=3472+384·log d — keep the bound")
	fmt.Println(" at the trivial k=1 until log2 m ≈ 10^5: the theorem is asymptotic.")
	fmt.Println(" The toy constants preserve the inequality's structure at unit scale.)")
	fmt.Println()

	// The full trade-off table with toy constants (shape visible).
	n := 1 << 16
	tab, err := experiments.TradeoffTable(toy, n, []int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tab)
	fmt.Println()

	// The m = Ω(n log n) corollary: host size needed for constant slowdown.
	for _, s0 := range []float64{2, 4, 8} {
		rows, err := toy.OpenProblemGap([]int{n}, s0, 0.5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("slowdown ≤ %.0f requires m ≥ %.0f (n = %d, toy constants)\n", s0, rows[0].MLower, n)
	}
}
