package neural_test

import (
	"fmt"

	"mmogdc/internal/neural"
	"mmogdc/internal/xrand"
)

// Training the paper's (6,3,1) perceptron in eras until the
// convergence criterion fires.
func ExampleMLP_Fit() {
	net, _ := neural.NewMLP(xrand.New(1), 2, 4, 1)

	// A toy target: y = average of the two inputs.
	train := neural.Samples{In: 2, Out: 1}
	test := neural.Samples{In: 2, Out: 1}
	for i := 0; i < 64; i++ {
		x1 := float64(i%8) / 8
		x2 := float64(i/8) / 8
		if i%5 == 0 {
			test.Rows = append(test.Rows, x1, x2, (x1+x2)/2)
		} else {
			train.Rows = append(train.Rows, x1, x2, (x1+x2)/2)
		}
	}

	report := net.Fit(train, test, neural.TrainConfig{
		LearningRate: 0.1, MaxEras: 500, Patience: 20, ShuffleSeed: 7,
	})
	fmt.Printf("converged: %v, test loss below 0.001: %v\n",
		report.Converged, report.TestLoss < 0.001)
	// Output: converged: true, test loss below 0.001: true
}
