package model

import (
	"fmt"

	"repro/internal/nn"
)

// conv3 builds conv3×3 + BN.
func conv3(name string, inC, outC, stride int) nn.Layer {
	return nn.NewSequential(
		nn.NewConv2D(name, inC, outC, 3, stride, 1, 1, false),
		nn.NewBatchNorm2D(name+".bn", outC),
	)
}

// conv1 builds conv1×1 + BN.
func conv1(name string, inC, outC, stride int) nn.Layer {
	return nn.NewSequential(
		nn.NewConv2D(name, inC, outC, 1, stride, 0, 1, false),
		nn.NewBatchNorm2D(name+".bn", outC),
	)
}

// basicBlock is the ResNet-18/34 two-conv residual block, optionally with a
// squeeze-and-excitation gate (SENet18).
func basicBlock(name string, inC, outC, stride int, se bool) nn.Layer {
	body := []nn.Layer{
		conv3(name+".c1", inC, outC, stride),
		nn.NewReLU(),
		conv3(name+".c2", outC, outC, 1),
	}
	if se {
		body = append(body, nn.NewSEBlock(name+".se", outC, 4))
	}
	var shortcut nn.Layer
	if stride != 1 || inC != outC {
		shortcut = conv1(name+".sc", inC, outC, stride)
	}
	return nn.NewSequential(
		nn.NewResidual(nn.NewSequential(body...), shortcut),
		nn.NewReLU(),
	)
}

// bottleneck is the ResNet-50/152 three-conv residual block with expansion 4;
// groups > 1 gives the ResNeXt variant.
func bottleneck(name string, inC, midC, stride, groups int) nn.Layer {
	outC := midC * 4
	body := nn.NewSequential(
		conv1(name+".c1", inC, midC, 1),
		nn.NewReLU(),
		nn.NewSequential(
			nn.NewConv2D(name+".c2", midC, midC, 3, stride, 1, groups, false),
			nn.NewBatchNorm2D(name+".c2.bn", midC),
		),
		nn.NewReLU(),
		conv1(name+".c3", midC, outC, 1),
	)
	var shortcut nn.Layer
	if stride != 1 || inC != outC {
		shortcut = conv1(name+".sc", inC, outC, stride)
	}
	return nn.NewSequential(nn.NewResidual(body, shortcut), nn.NewReLU())
}

// resNetStages assembles a stack of residual stages given per-stage block
// counts; blockFn builds one block.
func resNetStages(name string, inC int, widths []int, blocks []int,
	blockFn func(name string, inC, width, stride int) (nn.Layer, int)) ([]nn.Layer, int) {
	var layers []nn.Layer
	c := inC
	for s, nb := range blocks {
		for b := 0; b < nb; b++ {
			stride := 1
			if b == 0 && s > 0 {
				stride = 2
			}
			l, outC := blockFn(fmt.Sprintf("%s.s%d.b%d", name, s, b), c, widths[s], stride)
			layers = append(layers, l)
			c = outC
		}
	}
	return layers, c
}

// head builds the classifier head: global average pool + linear.
func head(name string, inC, numClasses int) nn.Layer {
	return nn.NewSequential(
		nn.NewGlobalAvgPool(),
		nn.NewLinear(name+".fc", inC, numClasses),
	)
}

// invertedResidual is MobileNetV2's block: 1×1 expand (ReLU6) → depthwise
// 3×3 (ReLU6) → 1×1 linear projection, with a residual when shapes allow.
func invertedResidual(name string, inC, outC, stride, expand int) nn.Layer {
	midC := inC * expand
	body := nn.NewSequential(
		nn.NewConv2D(name+".exp", inC, midC, 1, 1, 0, 1, false),
		nn.NewBatchNorm2D(name+".exp.bn", midC),
		nn.NewReLU6(),
		nn.NewConv2D(name+".dw", midC, midC, 3, stride, 1, midC, false),
		nn.NewBatchNorm2D(name+".dw.bn", midC),
		nn.NewReLU6(),
		nn.NewConv2D(name+".proj", midC, outC, 1, 1, 0, 1, false),
		nn.NewBatchNorm2D(name+".proj.bn", outC),
	)
	if stride == 1 && inC == outC {
		return nn.NewResidual(body, nil)
	}
	return body
}

// shuffleUnit is ShuffleNetV2's basic unit: channel split, identity branch +
// (1×1 → depthwise 3×3 → 1×1) branch, concat, channel shuffle. The strided
// variant processes both halves with depthwise downsampling.
func shuffleUnit(name string, c int, stride int) nn.Layer {
	half := c / 2
	if stride == 1 {
		branch := nn.NewSequential(
			nn.NewConv2D(name+".c1", half, half, 1, 1, 0, 1, false),
			nn.NewBatchNorm2D(name+".c1.bn", half),
			nn.NewReLU(),
			nn.NewConv2D(name+".dw", half, half, 3, 1, 1, half, false),
			nn.NewBatchNorm2D(name+".dw.bn", half),
			nn.NewConv2D(name+".c2", half, half, 1, 1, 0, 1, false),
			nn.NewBatchNorm2D(name+".c2.bn", half),
			nn.NewReLU(),
		)
		return nn.NewSequential(
			nn.NewSplitConcat(half, nn.NewIdentity(), branch),
			nn.NewChannelShuffle(2),
		)
	}
	// Strided unit: no split; both branches see all channels and downsample,
	// doubling the channel count.
	left := nn.NewSequential(
		nn.NewConv2D(name+".l.dw", c, c, 3, stride, 1, c, false),
		nn.NewBatchNorm2D(name+".l.dw.bn", c),
		nn.NewConv2D(name+".l.c1", c, c, 1, 1, 0, 1, false),
		nn.NewBatchNorm2D(name+".l.c1.bn", c),
		nn.NewReLU(),
	)
	right := nn.NewSequential(
		nn.NewConv2D(name+".r.c1", c, c, 1, 1, 0, 1, false),
		nn.NewBatchNorm2D(name+".r.c1.bn", c),
		nn.NewReLU(),
		nn.NewConv2D(name+".r.dw", c, c, 3, stride, 1, c, false),
		nn.NewBatchNorm2D(name+".r.dw.bn", c),
		nn.NewConv2D(name+".r.c2", c, c, 1, 1, 0, 1, false),
		nn.NewBatchNorm2D(name+".r.c2.bn", c),
		nn.NewReLU(),
	)
	return nn.NewSequential(
		nn.NewConcat(left, right),
		nn.NewChannelShuffle(2),
	)
}

// denseLayer produces growth new channels from all accumulated channels
// (BN → ReLU → conv3×3), concatenated onto its input by the caller.
func denseLayer(name string, inC, growth int) nn.Layer {
	return nn.NewConcat(
		nn.NewIdentity(),
		nn.NewSequential(
			nn.NewBatchNorm2D(name+".bn", inC),
			nn.NewReLU(),
			nn.NewConv2D(name+".conv", inC, growth, 3, 1, 1, 1, false),
		),
	)
}

// inceptionModule is a scaled InceptionV3-style module with four parallel
// branches concatenated on channels. The pooling branch is realised as a
// depthwise 3×3 convolution (learned smoothing) because the substrate's
// pooling layers have no padding; this preserves branch diversity, which is
// what the width-category study exercises.
func inceptionModule(name string, inC, b1, b3, b5, bp int) nn.Layer {
	branch1 := nn.NewSequential(
		nn.NewConv2D(name+".b1", inC, b1, 1, 1, 0, 1, false),
		nn.NewBatchNorm2D(name+".b1.bn", b1), nn.NewReLU(),
	)
	branch3 := nn.NewSequential(
		nn.NewConv2D(name+".b3a", inC, b3, 1, 1, 0, 1, false),
		nn.NewBatchNorm2D(name+".b3a.bn", b3), nn.NewReLU(),
		nn.NewConv2D(name+".b3b", b3, b3, 3, 1, 1, 1, false),
		nn.NewBatchNorm2D(name+".b3b.bn", b3), nn.NewReLU(),
	)
	branch5 := nn.NewSequential(
		nn.NewConv2D(name+".b5a", inC, b5, 1, 1, 0, 1, false),
		nn.NewBatchNorm2D(name+".b5a.bn", b5), nn.NewReLU(),
		nn.NewConv2D(name+".b5b", b5, b5, 3, 1, 1, 1, false),
		nn.NewBatchNorm2D(name+".b5b.bn", b5), nn.NewReLU(),
		nn.NewConv2D(name+".b5c", b5, b5, 3, 1, 1, 1, false),
		nn.NewBatchNorm2D(name+".b5c.bn", b5), nn.NewReLU(),
	)
	branchP := nn.NewSequential(
		nn.NewConv2D(name+".bp.dw", inC, inC, 3, 1, 1, inC, false),
		nn.NewConv2D(name+".bp", inC, bp, 1, 1, 0, 1, false),
		nn.NewBatchNorm2D(name+".bp.bn", bp), nn.NewReLU(),
	)
	return nn.NewConcat(branch1, branch3, branch5, branchP)
}
