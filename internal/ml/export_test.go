package ml

// Exports for the ml_test package, whose tests import packages that
// import ml.

// SGDConfig is sgdConfig.
type SGDConfig = sgdConfig

// TrainLogisticSGD is trainLogisticSGD, the minibatch SGD reference.
var TrainLogisticSGD = trainLogisticSGD

// LogisticObjective returns the objective TrainLogistic minimizes on d
// with penalty l2, evaluated at model m.
func LogisticObjective(d *Dataset, m *Logistic, l2 float64) float64 {
	std := FitStandardizer(d)
	p := newNewtonProblem(d, std, l2)
	return p.eval(p.coords(m, std))
}

// coords maps m's weights and bias into the coordinates p fits in: the
// inverse of the un-standardizing step at the end of TrainLogistic.
func (p *newtonProblem) coords(m *Logistic, std *Standardizer) []float64 {
	beta := make([]float64, p.dim)
	beta[0] = m.Bias
	for k := 1; k < p.dim; k++ {
		j := p.feat[k]
		beta[k] = m.Weights[j] * std.Scale[j]
		if k < p.nd {
			beta[0] += m.Weights[j] * std.Mean[j]
		}
	}
	return beta
}
