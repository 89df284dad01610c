//! The paper's network architectures, parameterized and scaled.
//!
//! Section V-A of the paper describes the classifiers:
//!
//! * MNIST / N-MNIST: an encoding set of {convolution, spiking neurons}
//!   followed by **two** repeated sets of {convolution, batch norm, spiking
//!   neurons, pooling} and two sets of {dropout, fully connected, spiking
//!   neurons};
//! * DVS128 Gesture: the same structure with the convolutional set repeated
//!   **five** times.
//!
//! [`ArchitectureConfig`] captures that family. The `*_like` presets are
//! scaled down (16x16 inputs, 8 channels) so that CPU-only training remains
//! tractable; `paper_full_*` presets build the full-size networks for
//! completeness.

use crate::layers::{BatchNorm2d, Conv2d, Dropout, Flatten, Linear, MaxPool2d, SpikingLayer};
use crate::network::SpikingNetwork;
use crate::neuron::NeuronConfig;
use crate::{Result, SnnError};

/// Configuration of a PLIF-SNN classifier in the paper's architecture family.
///
/// # Example
///
/// ```
/// use falvolt_snn::config::ArchitectureConfig;
///
/// # fn main() -> Result<(), falvolt_snn::SnnError> {
/// let config = ArchitectureConfig::mnist_like();
/// let mut network = config.build(42)?;
/// assert_eq!(network.time_steps(), config.time_steps);
/// assert!(network.len() > 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArchitectureConfig {
    /// Human-readable name (also used in reports).
    pub name: String,
    /// Number of input channels (1 for static images, 2 for event polarity).
    pub input_channels: usize,
    /// Input height and width (square inputs).
    pub input_size: usize,
    /// Number of {conv, batch-norm, spike, pool} blocks after the encoder.
    pub conv_blocks: usize,
    /// How many of those blocks end with a 2x2 average pool.
    pub pool_blocks: usize,
    /// Channels of every convolutional layer.
    pub conv_channels: usize,
    /// Square kernel size of every convolution.
    pub kernel: usize,
    /// Hidden width of the first fully connected layer.
    pub fc_hidden: usize,
    /// Number of output classes.
    pub classes: usize,
    /// Simulation time steps `T`.
    pub time_steps: usize,
    /// Dropout probability before each fully connected layer.
    pub dropout: f32,
    /// Neuron configuration shared by every spiking layer.
    pub neuron: NeuronConfig,
}

impl ArchitectureConfig {
    /// Scaled-down classifier for the synthetic MNIST-like dataset
    /// (1x16x16 inputs, 10 classes, 2 conv blocks as in the paper).
    pub fn mnist_like() -> Self {
        Self {
            name: "mnist-like".into(),
            input_channels: 1,
            input_size: 16,
            conv_blocks: 2,
            pool_blocks: 2,
            conv_channels: 8,
            kernel: 3,
            fc_hidden: 64,
            classes: 10,
            time_steps: 4,
            dropout: 0.25,
            neuron: NeuronConfig::paper_default(),
        }
    }

    /// Scaled-down classifier for the synthetic N-MNIST-like dataset
    /// (2-channel event frames, otherwise the MNIST architecture).
    pub fn nmnist_like() -> Self {
        Self {
            name: "nmnist-like".into(),
            input_channels: 2,
            ..Self::mnist_like()
        }
    }

    /// Scaled-down classifier for the synthetic DVS-Gesture-like dataset
    /// (2-channel event frames, 11 classes, 5 conv blocks as in the paper).
    pub fn dvs_gesture_like() -> Self {
        Self {
            name: "dvs-gesture-like".into(),
            input_channels: 2,
            input_size: 16,
            conv_blocks: 5,
            // Only the first two blocks pool: with 16x16 inputs, pooling in
            // every block would collapse the feature map to 1x1 before the
            // fully connected stage and destroy the spatial evidence the
            // motion classes depend on (the paper's full-size 128x128 inputs
            // can afford a pool per block).
            pool_blocks: 2,
            conv_channels: 8,
            kernel: 3,
            fc_hidden: 64,
            classes: 11,
            time_steps: 6,
            dropout: 0.25,
            neuron: NeuronConfig::paper_default(),
        }
    }

    /// The full-size MNIST classifier of the paper (28x28 inputs, 128
    /// channels, 2048 hidden units). Provided for completeness; training it
    /// on a CPU is slow.
    pub fn paper_full_mnist() -> Self {
        Self {
            name: "paper-mnist".into(),
            input_channels: 1,
            input_size: 28,
            conv_blocks: 2,
            pool_blocks: 2,
            conv_channels: 128,
            kernel: 3,
            fc_hidden: 2048,
            classes: 10,
            time_steps: 8,
            dropout: 0.5,
            neuron: NeuronConfig::paper_default(),
        }
    }

    /// A deliberately tiny configuration for fast unit and integration tests.
    pub fn tiny_test() -> Self {
        Self {
            name: "tiny-test".into(),
            input_channels: 1,
            input_size: 8,
            conv_blocks: 1,
            pool_blocks: 1,
            conv_channels: 4,
            kernel: 3,
            fc_hidden: 16,
            classes: 4,
            time_steps: 2,
            dropout: 0.0,
            neuron: NeuronConfig::paper_default(),
        }
    }

    /// Builder-style override of the neuron configuration.
    pub fn with_neuron(mut self, neuron: NeuronConfig) -> Self {
        self.neuron = neuron;
        self
    }

    /// Builder-style override of the time-step count.
    pub fn with_time_steps(mut self, time_steps: usize) -> Self {
        self.time_steps = time_steps;
        self
    }

    /// Spatial size of the feature map entering the fully connected stage.
    pub fn final_spatial_size(&self) -> usize {
        self.input_size >> self.pool_blocks
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] when pooling would shrink the
    /// feature map below 1x1, when `pool_blocks > conv_blocks`, or when the
    /// input size is not divisible by the total pooling factor.
    pub fn validate(&self) -> Result<()> {
        if self.conv_blocks == 0 {
            return Err(SnnError::invalid_config(
                "at least one conv block is required",
            ));
        }
        if self.pool_blocks > self.conv_blocks {
            return Err(SnnError::invalid_config(format!(
                "pool_blocks ({}) cannot exceed conv_blocks ({})",
                self.pool_blocks, self.conv_blocks
            )));
        }
        let factor = 1usize << self.pool_blocks;
        if !self.input_size.is_multiple_of(factor) || self.input_size / factor == 0 {
            return Err(SnnError::invalid_config(format!(
                "input size {} is not divisible by the pooling factor {}",
                self.input_size, factor
            )));
        }
        if self.classes == 0 || self.time_steps == 0 || self.conv_channels == 0 {
            return Err(SnnError::invalid_config(
                "classes, time_steps and conv_channels must be non-zero",
            ));
        }
        Ok(())
    }

    /// Builds the network with weights seeded from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] when [`ArchitectureConfig::validate`]
    /// fails.
    pub fn build(&self, seed: u64) -> Result<SpikingNetwork> {
        self.validate()?;
        let mut network = SpikingNetwork::new(self.time_steps);
        let pad = self.kernel / 2;
        let mut layer_seed = seed;
        let mut next_seed = || {
            layer_seed = layer_seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            layer_seed
        };

        // Spike-encoding set: convolution + spiking neurons (Section V-A).
        network.push(Conv2d::new(
            "encode_conv",
            self.input_channels,
            self.conv_channels,
            self.kernel,
            1,
            pad,
            next_seed(),
        )?);
        network.push(SpikingLayer::new("encode_sn", self.neuron));

        // Repeated {conv, batch norm, spiking, pool} blocks.
        for block in 0..self.conv_blocks {
            let idx = block + 1;
            network.push(Conv2d::new(
                format!("conv{idx}"),
                self.conv_channels,
                self.conv_channels,
                self.kernel,
                1,
                pad,
                next_seed(),
            )?);
            network.push(BatchNorm2d::new(format!("bn{idx}"), self.conv_channels));
            network.push(SpikingLayer::new(format!("conv{idx}_sn"), self.neuron));
            if block < self.pool_blocks {
                // Max pooling (as in the PLIF reference implementation the
                // paper builds on): it preserves the binary amplitude of
                // spikes, which average pooling would attenuate.
                network.push(MaxPool2d::new(format!("pool{idx}"), 2));
            }
        }

        // Two {dropout, fully connected, spiking} sets.
        let spatial = self.final_spatial_size();
        let fc_in = self.conv_channels * spatial * spatial;
        network.push(Flatten::new("flatten"));
        if self.dropout > 0.0 {
            network.push(Dropout::new("dropout1", self.dropout, next_seed())?);
        }
        network.push(Linear::new("fc1", fc_in, self.fc_hidden, next_seed())?);
        network.push(SpikingLayer::new("fc1_sn", self.neuron));
        if self.dropout > 0.0 {
            network.push(Dropout::new("dropout2", self.dropout, next_seed())?);
        }
        network.push(Linear::new(
            "fc2",
            self.fc_hidden,
            self.classes,
            next_seed(),
        )?);
        network.push(SpikingLayer::new("fc2_sn", self.neuron));

        Ok(network)
    }

    /// Names of the hidden layers whose threshold voltages the paper reports
    /// in Figure 6 (the convolutional and fully connected spiking layers).
    pub fn hidden_layer_names(&self) -> Vec<String> {
        let mut names: Vec<String> = (1..=self.conv_blocks).map(|i| format!("Conv{i}")).collect();
        names.push("FC1".to_string());
        names.push("FC2".to_string());
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Mode;
    use falvolt_tensor::Tensor;

    #[test]
    fn presets_validate_and_build() {
        for config in [
            ArchitectureConfig::mnist_like(),
            ArchitectureConfig::nmnist_like(),
            ArchitectureConfig::dvs_gesture_like(),
            ArchitectureConfig::tiny_test(),
        ] {
            config.validate().unwrap();
            let network = config.build(1).unwrap();
            assert!(!network.is_empty(), "{} built empty", config.name);
        }
        // The full-size config must at least validate (building it is cheap,
        // running it is not).
        ArchitectureConfig::paper_full_mnist().validate().unwrap();
    }

    #[test]
    fn paper_structure_counts_match_section_v() {
        // MNIST-like: 2 conv blocks -> thresholds for encode + 2 conv + 2 FC
        // spiking layers = 5 spiking layers in total.
        let config = ArchitectureConfig::mnist_like();
        let network = config.build(3).unwrap();
        let spiking = network.thresholds().len();
        assert_eq!(spiking, 1 + config.conv_blocks + 2);

        // DVS-like: 5 conv blocks -> 8 spiking layers.
        let config = ArchitectureConfig::dvs_gesture_like();
        let network = config.build(3).unwrap();
        assert_eq!(network.thresholds().len(), 1 + 5 + 2);
        assert_eq!(config.hidden_layer_names().len(), 7);
    }

    #[test]
    fn built_network_runs_forward_with_expected_shapes() {
        let config = ArchitectureConfig::tiny_test();
        let mut network = config.build(9).unwrap();
        let input = Tensor::zeros(&[
            3,
            config.input_channels,
            config.input_size,
            config.input_size,
        ]);
        let rates = network.forward(&input, Mode::Eval).unwrap();
        assert_eq!(rates.shape(), &[3, config.classes]);

        let config = ArchitectureConfig::nmnist_like();
        let mut network = config.build(9).unwrap();
        let temporal = Tensor::zeros(&[
            2,
            config.time_steps,
            config.input_channels,
            config.input_size,
            config.input_size,
        ]);
        let rates = network.forward(&temporal, Mode::Eval).unwrap();
        assert_eq!(rates.shape(), &[2, config.classes]);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let mut config = ArchitectureConfig::mnist_like();
        config.pool_blocks = 5; // exceeds conv_blocks
        assert!(config.validate().is_err());

        let mut config = ArchitectureConfig::mnist_like();
        config.conv_blocks = 0;
        assert!(config.validate().is_err());

        let mut config = ArchitectureConfig::mnist_like();
        config.input_size = 10; // not divisible by 4
        assert!(config.validate().is_err());

        let mut config = ArchitectureConfig::mnist_like();
        config.classes = 0;
        assert!(config.build(0).is_err());
    }

    #[test]
    fn final_spatial_size_accounts_for_pooling() {
        assert_eq!(ArchitectureConfig::mnist_like().final_spatial_size(), 4);
        assert_eq!(
            ArchitectureConfig::dvs_gesture_like().final_spatial_size(),
            4
        );
        assert_eq!(ArchitectureConfig::tiny_test().final_spatial_size(), 4);
    }

    #[test]
    fn builders_override_fields() {
        let config = ArchitectureConfig::mnist_like()
            .with_time_steps(2)
            .with_neuron(NeuronConfig::falvolt_retraining());
        assert_eq!(config.time_steps, 2);
        assert!(config.neuron.learn_threshold);
    }
}
