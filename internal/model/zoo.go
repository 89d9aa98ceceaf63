package model

import (
	"fmt"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func init() {
	register("SixCNN", NewSixCNN)
	register("ResNet18", NewResNet18)
	register("ResNet152", NewResNet152)
	register("DenseNet", NewDenseNet)
	register("InceptionV3", NewInceptionV3)
	register("ResNeXt", NewResNeXt)
	register("WideResNet", NewWideResNet)
	register("SENet18", NewSENet18)
	register("MobileNetV2", NewMobileNetV2)
	register("MobileNetV2x2", NewMobileNetV2x2)
	register("ShuffleNetV2", NewShuffleNetV2)
}

// NewSixCNN is the 6-layer CNN of Jung et al. [19] used for CIFAR100, FC100
// and CORe50 (§V-A): four convolutions with two max-pools, then two fully
// connected layers.
func NewSixCNN(numClasses, inC, inH, inW, width int, rng *tensor.RNG) *Model {
	w := 8 * width
	h2, w2 := inH/2, inW/2
	h4, w4 := h2/2, w2/2
	net := nn.NewSequential(
		nn.NewConv2D("c1", inC, w, 3, 1, 1, 1, true),
		nn.NewReLU(),
		nn.NewConv2D("c2", w, w, 3, 1, 1, 1, true),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		nn.NewConv2D("c3", w, 2*w, 3, 1, 1, 1, true),
		nn.NewReLU(),
		nn.NewConv2D("c4", 2*w, 2*w, 3, 1, 1, 1, true),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		nn.NewFlatten(),
		nn.NewLinear("fc1", 2*w*h4*w4, 16*width),
		nn.NewReLU(),
		nn.NewLinear("fc2", 16*width, numClasses),
	)
	return newModel("SixCNN", net, numClasses, inC, inH, inW, rng)
}

// NewResNet18 builds the standard [2,2,2,2] basic-block ResNet.
func NewResNet18(numClasses, inC, inH, inW, width int, rng *tensor.RNG) *Model {
	return resNet18Like("ResNet18", false, numClasses, inC, inH, inW, width, rng)
}

// NewSENet18 is ResNet-18 with squeeze-and-excitation gates in every block
// (the attention / feature-map-exploitation category of §V-E).
func NewSENet18(numClasses, inC, inH, inW, width int, rng *tensor.RNG) *Model {
	return resNet18Like("SENet18", true, numClasses, inC, inH, inW, width, rng)
}

func resNet18Like(name string, se bool, numClasses, inC, inH, inW, width int, rng *tensor.RNG) *Model {
	w := 8 * width
	layers := []nn.Layer{
		conv3("stem", inC, w, 1),
		nn.NewReLU(),
	}
	stages, outC := resNetStages(name, w, []int{w, 2 * w, 4 * w, 8 * w}, []int{2, 2, 2, 2},
		func(n string, in, wd, stride int) (nn.Layer, int) {
			return basicBlock(n, in, wd, stride, se), wd
		})
	layers = append(layers, stages...)
	layers = append(layers, head(name, outC, numClasses))
	return newModel(name, nn.NewSequential(layers...), numClasses, inC, inH, inW, rng)
}

// NewResNet152 uses bottleneck blocks with the published [3,8,36,3] stage
// depths (the depth category of §V-E). At width 1 the channel counts are
// scaled to 1/16 of the original so the pure-Go substrate can train it.
func NewResNet152(numClasses, inC, inH, inW, width int, rng *tensor.RNG) *Model {
	w := 4 * width
	layers := []nn.Layer{conv3("stem", inC, w, 1), nn.NewReLU()}
	stages, outC := resNetStages("ResNet152", w, []int{w, 2 * w, 4 * w, 8 * w}, []int{3, 8, 36, 3},
		func(n string, in, wd, stride int) (nn.Layer, int) {
			return bottleneck(n, in, wd, stride, 1), wd * 4
		})
	layers = append(layers, stages...)
	layers = append(layers, head("ResNet152", outC, numClasses))
	return newModel("ResNet152", nn.NewSequential(layers...), numClasses, inC, inH, inW, rng)
}

// NewResNeXt is the grouped-convolution bottleneck network (width category):
// a scaled ResNeXt with cardinality 4.
func NewResNeXt(numClasses, inC, inH, inW, width int, rng *tensor.RNG) *Model {
	w := 8 * width
	layers := []nn.Layer{conv3("stem", inC, w, 1), nn.NewReLU()}
	stages, outC := resNetStages("ResNeXt", w, []int{w, 2 * w, 4 * w}, []int{2, 2, 2},
		func(n string, in, wd, stride int) (nn.Layer, int) {
			return bottleneck(n, in, wd, stride, 4), wd * 4
		})
	layers = append(layers, stages...)
	layers = append(layers, head("ResNeXt", outC, numClasses))
	return newModel("ResNeXt", nn.NewSequential(layers...), numClasses, inC, inH, inW, rng)
}

// NewWideResNet is a WRN-style network: basic blocks with a ×4 widening
// factor over three stages (width category).
func NewWideResNet(numClasses, inC, inH, inW, width int, rng *tensor.RNG) *Model {
	w := 8 * width * 4
	layers := []nn.Layer{conv3("stem", inC, 8*width, 1), nn.NewReLU()}
	stages, outC := resNetStages("WideResNet", 8*width, []int{w, 2 * w, 4 * w}, []int{2, 2, 2},
		func(n string, in, wd, stride int) (nn.Layer, int) {
			return basicBlock(n, in, wd, stride, false), wd
		})
	layers = append(layers, stages...)
	layers = append(layers, head("WideResNet", outC, numClasses))
	return newModel("WideResNet", nn.NewSequential(layers...), numClasses, inC, inH, inW, rng)
}

// NewDenseNet builds a DenseNet-BC style network (multi-path category):
// three dense blocks with 1×1 transition convolutions and average-pool
// downsampling between them.
func NewDenseNet(numClasses, inC, inH, inW, width int, rng *tensor.RNG) *Model {
	growth := 4 * width
	c := 2 * growth
	layers := []nn.Layer{conv3("stem", inC, c, 1), nn.NewReLU()}
	blockSizes := []int{4, 4, 4}
	for bi, nLayers := range blockSizes {
		for li := 0; li < nLayers; li++ {
			layers = append(layers, denseLayer(namef("dense.%d.%d", bi, li), c, growth))
			c += growth
		}
		if bi < len(blockSizes)-1 {
			// Transition: 1×1 conv halves channels, avg-pool halves spatial.
			c2 := c / 2
			layers = append(layers,
				conv1(namef("trans.%d", bi), c, c2, 1),
				nn.NewReLU(),
				nn.NewAvgPool2D(2, 2),
			)
			c = c2
		}
	}
	layers = append(layers, head("DenseNet", c, numClasses))
	return newModel("DenseNet", nn.NewSequential(layers...), numClasses, inC, inH, inW, rng)
}

// NewInceptionV3 builds a scaled Inception-style network (width category):
// stem, two inception modules, strided reduction, two more modules.
func NewInceptionV3(numClasses, inC, inH, inW, width int, rng *tensor.RNG) *Model {
	w := 4 * width
	stemC := 2 * w
	layers := []nn.Layer{conv3("stem", inC, stemC, 1), nn.NewReLU()}
	c := stemC
	addModule := func(name string) {
		layers = append(layers, inceptionModule(name, c, w, w, w, w))
		c = 4 * w
	}
	addModule("inc1")
	addModule("inc2")
	layers = append(layers, conv3("red1", c, c, 2), nn.NewReLU())
	addModule("inc3")
	addModule("inc4")
	layers = append(layers, head("InceptionV3", c, numClasses))
	return newModel("InceptionV3", nn.NewSequential(layers...), numClasses, inC, inH, inW, rng)
}

// NewMobileNetV2 is the inverted-residual lightweight network with width
// multiplier 1.0 (lightweight category).
func NewMobileNetV2(numClasses, inC, inH, inW, width int, rng *tensor.RNG) *Model {
	return mobileNetV2("MobileNetV2", 1, numClasses, inC, inH, inW, width, rng)
}

// NewMobileNetV2x2 is MobileNetV2 with width multiplier 2.0, the second
// configuration the paper tests.
func NewMobileNetV2x2(numClasses, inC, inH, inW, width int, rng *tensor.RNG) *Model {
	return mobileNetV2("MobileNetV2x2", 2, numClasses, inC, inH, inW, width, rng)
}

func mobileNetV2(name string, mult, numClasses, inC, inH, inW, width int, rng *tensor.RNG) *Model {
	base := 4 * width * mult
	layers := []nn.Layer{conv3("stem", inC, base, 1), nn.NewReLU6()}
	type stage struct{ out, n, stride, expand int }
	stages := []stage{
		{base, 1, 1, 1},
		{base * 2, 2, 2, 6},
		{base * 4, 2, 2, 6},
		{base * 8, 2, 1, 6},
	}
	c := base
	for si, st := range stages {
		for bi := 0; bi < st.n; bi++ {
			stride := 1
			if bi == 0 {
				stride = st.stride
			}
			layers = append(layers, invertedResidual(namef("%s.ir%d.%d", name, si, bi), c, st.out, stride, st.expand))
			c = st.out
		}
	}
	layers = append(layers, head(name, c, numClasses))
	return newModel(name, nn.NewSequential(layers...), numClasses, inC, inH, inW, rng)
}

// NewShuffleNetV2 builds the channel-split/shuffle lightweight network.
func NewShuffleNetV2(numClasses, inC, inH, inW, width int, rng *tensor.RNG) *Model {
	c := 8 * width
	layers := []nn.Layer{conv3("stem", inC, c, 1), nn.NewReLU()}
	// Stage 1: two basic units; stage 2: strided unit (doubles channels)
	// then two basic units.
	layers = append(layers,
		shuffleUnit("su1.0", c, 1),
		shuffleUnit("su1.1", c, 1),
		shuffleUnit("su2.0", c, 2),
	)
	c *= 2
	layers = append(layers,
		shuffleUnit("su2.1", c, 1),
		shuffleUnit("su2.2", c, 1),
	)
	layers = append(layers, head("ShuffleNetV2", c, numClasses))
	return newModel("ShuffleNetV2", nn.NewSequential(layers...), numClasses, inC, inH, inW, rng)
}

func namef(format string, args ...interface{}) string {
	return fmt.Sprintf(format, args...)
}
