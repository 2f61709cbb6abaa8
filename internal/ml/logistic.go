package ml

import (
	"fmt"
	"math"
)

// Classifier is a binary probabilistic classifier. PredictProba returns
// P(y=1 | x). Implementations must be deterministic once trained.
type Classifier interface {
	PredictProba(x []float64) float64
}

// Predict thresholds a classifier's probability at 0.5.
func Predict(c Classifier, x []float64) float64 {
	if c.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}

// PredictAll returns hard 0/1 predictions for every row.
func PredictAll(c Classifier, X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = Predict(c, x)
	}
	return out
}

// PredictProbaAll returns P(y=1|x) for every row.
func PredictProbaAll(c Classifier, X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = c.PredictProba(x)
	}
	return out
}

// LogisticConfig holds the hyperparameters of logistic-regression training.
type LogisticConfig struct {
	// Epochs caps the Newton iterations (default 100). Training stops
	// earlier once it converges, in a handful of iterations on typical
	// data, so only a cap below that changes the model.
	Epochs int
	L2     float64 // ridge penalty on the standardized weights, not the bias (default 0)
	// Seed is ignored: no step of the fit is random. It is kept so that
	// callers that set it still compile.
	Seed uint64
}

func (c LogisticConfig) withDefaults() LogisticConfig {
	if c.Epochs <= 0 {
		c.Epochs = 100
	}
	return c
}

// Logistic is a trained logistic-regression model.
type Logistic struct {
	Weights  []float64 // per-feature coefficients
	Bias     float64
	Features []string
}

// Sigmoid is the logistic link function.
func Sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

const (
	// newtonRidge is added to every coefficient's penalty, the bias
	// included, so that single-class and separable data still have a
	// finite optimum.
	newtonRidge = 1e-6
	// newtonTol stops the iteration once the Newton decrement -g·Δ, the
	// objective's predicted remaining decrease (times two), falls below
	// it.
	newtonTol = 1e-14
	// maxHalvings bounds the step halvings of one line search.
	maxHalvings = 40
)

// TrainLogistic fits binary logistic regression with optional L2
// regularization and per-sample weights. Targets must be 0/1.
//
// It minimizes the weighted mean log-loss plus (L2/2)·‖w‖² over the
// standardized weights, plus a fixed ridge of newtonRidge on every
// coefficient and the bias, by Newton's method, also called iteratively
// reweighted least squares. Each iteration takes the full Newton step
// unless the objective rises, halving it until it does not, and the
// fit stops once the Newton decrement falls below newtonTol. The
// optimum is unique, so the model does not depend on a seed, and
// depends on the order of the rows only through rounding (about 1e-13
// relative).
//
// An iteration costs one pass over the rows. A feature nonzero in more
// than half of the rows is dense; the others, one-hot levels
// typically, are sparse and enter a row's Hessian update only where
// they are nonzero. A row costs about the square of its dense features
// plus its sparse nonzeros, so many dense features make Newton slow.
func TrainLogistic(d *Dataset, cfg LogisticConfig) (*Logistic, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.N() == 0 {
		return nil, fmt.Errorf("ml: TrainLogistic on empty dataset")
	}
	for i, y := range d.Y {
		if y != 0 && y != 1 {
			return nil, fmt.Errorf("ml: TrainLogistic target must be 0/1, row %d is %v", i, y)
		}
	}
	cfg = cfg.withDefaults()
	std := FitStandardizer(d)
	p := newNewtonProblem(d, std, cfg.L2)
	beta := make([]float64, p.dim)
	if p.sumW > 0 {
		p.solve(beta, cfg.Epochs)
	}
	// Fold the scaling and the dense features' centering back into the
	// weights so the model predicts over the caller's feature space.
	m := &Logistic{Weights: make([]float64, d.D()), Bias: beta[0], Features: append([]string(nil), d.Features...)}
	for k := 1; k < p.dim; k++ {
		j := p.feat[k]
		m.Weights[j] = beta[k] / std.Scale[j]
		if k < p.nd {
			m.Bias -= beta[k] * std.Mean[j] / std.Scale[j]
		}
	}
	return m, nil
}

// newtonProblem is the penalized, weighted log-loss in the coordinates
// the iteration runs in. Column 0 is the intercept. Columns 1 to nd-1
// are the dense features, standardized, and kept with the intercept in
// one flat row-major matrix. The remaining columns are the sparse
// features, scaled but not centered, so that only their nonzeros are
// stored and visited. Leaving a feature uncentered shifts the intercept
// by (mean/scale)·β, so the ridge goes on the standardized model's bias,
// the dot product of the bias field with β, and the objective is that
// of the fully standardized fit.
// Newton's method is invariant to such a linear change of coordinates,
// so its iterates are too, up to rounding.
type newtonProblem struct {
	dim  int       // features plus the intercept
	nd   int       // the intercept and the dense features
	feat []int     // feat[k] is the Dataset feature in column k >= 1
	xs   []float64 // n rows of nd values
	// Row i's sparse nonzeros are spVal[spAt[i]:spAt[i+1]], in the
	// ascending columns spCol[spAt[i]:spAt[i+1]].
	spAt  []int
	spCol []int
	spVal []float64
	// bias holds the standardized model's bias as a linear function of
	// the coefficients: 1 for the intercept, mean/scale for a sparse
	// feature and 0 for a dense one.
	bias []float64
	y, w []float64 // targets and row weights; w is nil when unweighted
	sumW float64
	l2   float64
	// g and h hold the gradient and the row-major Hessian at the last
	// point eval visited.
	g, h []float64
}

func newNewtonProblem(d *Dataset, std *Standardizer, l2 float64) *newtonProblem {
	n, dim := d.N(), d.D()+1
	nonzero := make([]int, d.D())
	for _, row := range d.X {
		for j, v := range row {
			if v != 0 {
				nonzero[j]++
			}
		}
	}
	p := &newtonProblem{
		dim: dim, feat: make([]int, dim), spAt: make([]int, n+1), bias: make([]float64, dim),
		y: d.Y, w: d.Weights, l2: l2, g: make([]float64, dim), h: make([]float64, dim*dim),
	}
	p.bias[0] = 1
	k := 1
	for j, c := range nonzero {
		if 2*c > n {
			p.feat[k] = j
			k++
		}
	}
	p.nd = k
	nnz := 0
	for j, c := range nonzero {
		if 2*c <= n {
			p.feat[k] = j
			p.bias[k] = std.Mean[j] / std.Scale[j]
			k++
			nnz += c
		}
	}
	p.xs = make([]float64, n*p.nd)
	p.spCol, p.spVal = make([]int, 0, nnz), make([]float64, 0, nnz)
	for i, row := range d.X {
		x := p.xs[i*p.nd:][:p.nd]
		x[0] = 1
		for k := 1; k < p.nd; k++ {
			j := p.feat[k]
			x[k] = (row[j] - std.Mean[j]) / std.Scale[j]
		}
		for k := p.nd; k < dim; k++ {
			if v := row[p.feat[k]]; v != 0 {
				p.spCol = append(p.spCol, k)
				p.spVal = append(p.spVal, v/std.Scale[p.feat[k]])
			}
		}
		p.spAt[i+1] = len(p.spCol)
	}
	if d.Weights == nil {
		p.sumW = float64(n)
	}
	for _, wi := range d.Weights {
		p.sumW += wi
	}
	return p
}

// solve runs at most maxIter Newton iterations from beta, updating it
// in place.
func (p *newtonProblem) solve(beta []float64, maxIter int) {
	dim := p.dim
	next := make([]float64, dim)
	rhs := make([]float64, dim)
	rows := make([][]float64, dim)
	cur := p.eval(beta)
	for iter := 0; iter < maxIter; iter++ {
		// step = -H⁻¹g. The solve consumes h, which the next eval
		// refills. The decrement is tested before any line search,
		// since near the optimum rounding alone can make a step look
		// uphill.
		for j, gj := range p.g {
			rows[j] = p.h[j*dim:][:dim]
			rhs[j] = -gj
		}
		step, err := solveLinearSystem(rows, rhs)
		if err != nil {
			return
		}
		dec := 0.0
		for j, gj := range p.g {
			dec -= gj * step[j]
		}
		if !(dec > newtonTol) {
			return
		}
		t := 1.0
		for halvings := 0; ; halvings++ {
			if halvings == maxHalvings {
				return
			}
			for j := range next {
				next[j] = beta[j] + t*step[j]
			}
			// eval leaves g and h at the trial point, which is what the
			// next iteration needs once the step is accepted.
			if obj := p.eval(next); obj <= cur {
				cur = obj
				break
			}
			t /= 2
		}
		copy(beta, next)
	}
}

// eval returns the objective at beta and sets p.g and p.h to its
// gradient and Hessian, in one pass over the rows. Rows go in pairs, so
// each sweep over the dense block of the Hessian's upper triangle
// serves two of them.
func (p *newtonProblem) eval(beta []float64) float64 {
	dim, nd := p.dim, p.nd
	g, h := p.g, p.h
	clear(g)
	clear(h)
	loss := 0.0
	n := len(p.y)
	for i := 0; i < n; i += 2 {
		x0, sc0, sv0 := p.rowAt(i)
		l0, r0, c0 := p.terms(i, beta, x0, sc0, sv0)
		// An odd last row pairs with itself at zero weight, which adds
		// exact zeros.
		x1, sc1, sv1, l1, r1, c1 := x0, []int(nil), []float64(nil), 0.0, 0.0, 0.0
		if i+1 < n {
			x1, sc1, sv1 = p.rowAt(i + 1)
			l1, r1, c1 = p.terms(i+1, beta, x1, sc1, sv1)
		}
		loss += l0 + l1
		// The upper triangle: dense by dense and dense by sparse here,
		// sparse by sparse in addSparse.
		for k := range x0 {
			g[k] += r0*x0[k] + r1*x1[k]
			a, b := c0*x0[k], c1*x1[k]
			row := h[k*dim:][:dim]
			dense := row[k:nd]
			y0, y1 := x0[k:][:len(dense)], x1[k:][:len(dense)]
			for m := range dense {
				dense[m] += a*y0[m] + b*y1[m]
			}
			for j, m := range sc0 {
				row[m] += a * sv0[j]
			}
			for j, m := range sc1 {
				row[m] += b * sv1[j]
			}
		}
		p.addSparse(r0, c0, sc0, sv0)
		p.addSparse(r1, c1, sc1, sv1)
	}
	inv := 1 / p.sumW
	bias := 0.0
	for k, bk := range p.bias {
		bias += bk * beta[k]
	}
	obj := loss*inv + newtonRidge/2*bias*bias
	for k, bk := range beta {
		pen := 0.0
		if k > 0 {
			pen = newtonRidge + p.l2
			obj += pen / 2 * bk * bk
		}
		g[k] = g[k]*inv + pen*bk + newtonRidge*bias*p.bias[k]
		row := h[k*dim:][:dim]
		for m := k; m < dim; m++ {
			row[m] = row[m]*inv + newtonRidge*p.bias[k]*p.bias[m]
			h[m*dim+k] = row[m]
		}
		row[k] += pen
	}
	return obj
}

// rowAt returns row i's dense values and its sparse nonzeros.
func (p *newtonProblem) rowAt(i int) (x []float64, sc []int, sv []float64) {
	lo, hi := p.spAt[i], p.spAt[i+1]
	return p.xs[i*p.nd:][:p.nd], p.spCol[lo:hi], p.spVal[lo:hi]
}

// terms returns row i's weighted loss term and its weighted residual
// and curvature, the row's factors in the gradient and the Hessian.
func (p *newtonProblem) terms(i int, beta, x []float64, sc []int, sv []float64) (loss, r, c float64) {
	wi := 1.0
	if p.w != nil {
		if wi = p.w[i]; wi == 0 {
			return 0, 0, 0
		}
	}
	z := 0.0
	for k, v := range x {
		z += beta[k] * v
	}
	for a, k := range sc {
		z += beta[k] * sv[a]
	}
	// One exp serves the probability and the loss:
	// log(1+e^z) = max(z, 0) + log(1+e^-|z|). With e^-|z| at most 1,
	// math.Log(1+e) is off from math.Log1p(e) by rounding alone, which
	// the objective's comparisons tolerate, and it is the faster call.
	e := math.Exp(-math.Abs(z))
	prob, softplus := e/(1+e), math.Log(1+e)
	if z >= 0 {
		prob, softplus = 1/(1+e), z+softplus
	}
	yi := p.y[i]
	return wi * (softplus - yi*z), wi * (prob - yi), wi * prob * (1 - prob)
}

// addSparse adds a row's sparse nonzeros to the gradient and their
// products, columns ascending, to the Hessian's upper triangle.
func (p *newtonProblem) addSparse(r, c float64, sc []int, sv []float64) {
	for a, k := range sc {
		p.g[k] += r * sv[a]
		cv := c * sv[a]
		row := p.h[k*p.dim:][:p.dim]
		for b, m := range sc[a:] {
			row[m] += cv * sv[a+b]
		}
	}
}

// PredictProba returns P(y=1 | x).
func (m *Logistic) PredictProba(x []float64) float64 {
	z := m.Bias
	for j, w := range m.Weights {
		z += w * x[j]
	}
	return Sigmoid(z)
}

// Coefficients returns a copy of feature-name → coefficient, the model's
// native transparency artifact.
func (m *Logistic) Coefficients() map[string]float64 {
	out := make(map[string]float64, len(m.Weights))
	for j, f := range m.Features {
		out[f] = m.Weights[j]
	}
	return out
}
