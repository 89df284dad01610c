//! Gradient-descent optimizers.

use crate::param::Param;

/// An optimizer that updates [`Param`]s in place from their accumulated
/// gradients. Frozen parameters (see [`Param::set_trainable`]) are skipped.
pub trait Optimizer: std::fmt::Debug {
    /// Applies one update step to the given parameters.
    fn step(&mut self, params: Vec<&mut Param>);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Changes the learning rate (e.g. for a decay schedule).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with classical momentum.
///
/// # Example
///
/// ```
/// use falvolt_snn::optim::{Optimizer, Sgd};
/// use falvolt_snn::Param;
/// use falvolt_tensor::Tensor;
///
/// let mut sgd = Sgd::new(0.1, 0.0);
/// let mut p = Param::new("w", Tensor::scalar(1.0));
/// p.grad_mut().fill(2.0);
/// sgd.step(vec![&mut p]);
/// assert!((p.value().data()[0] - 0.8).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
}

impl Sgd {
    /// Creates SGD with learning rate `lr` and momentum coefficient
    /// `momentum` (0 disables momentum).
    pub fn new(lr: f32, momentum: f32) -> Self {
        Self { lr, momentum }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: Vec<&mut Param>) {
        for param in params {
            if !param.is_trainable() {
                continue;
            }
            let momentum = self.momentum;
            let lr = self.lr;
            if momentum > 0.0 {
                // buf = momentum * buf + grad; value -= lr * buf.
                let grad = param.grad().clone();
                let buf = param.momentum_mut();
                buf.scale_inplace(momentum);
                buf.add_assign(&grad).expect("grad shape matches value");
                let buf = buf.clone();
                param
                    .value_mut()
                    .add_scaled_assign(&buf, -lr)
                    .expect("buffer shape matches value");
            } else {
                let (value, grad) = param.value_and_grad_mut();
                let grad = grad.clone();
                value
                    .add_scaled_assign(&grad, -lr)
                    .expect("grad shape matches value");
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// The Adam optimizer (Kingma & Ba) with bias correction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
}

impl Adam {
    /// Creates Adam with the given learning rate and default moments
    /// (`beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// Creates Adam with explicit hyper-parameters.
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        Self {
            lr,
            beta1,
            beta2,
            eps,
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: Vec<&mut Param>) {
        for param in params {
            if !param.is_trainable() {
                continue;
            }
            let grad = param.grad().clone();
            let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
            let (m, v, step) = param.adam_state_mut();
            *step += 1;
            let t = *step as i32;
            // m = beta1 m + (1 - beta1) g ; v = beta2 v + (1 - beta2) g^2.
            for ((m_i, v_i), &g) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut().iter_mut())
                .zip(grad.data())
            {
                *m_i = beta1 * *m_i + (1.0 - beta1) * g;
                *v_i = beta2 * *v_i + (1.0 - beta2) * g * g;
            }
            let bias1 = 1.0 - beta1.powi(t);
            let bias2 = 1.0 - beta2.powi(t);
            let m_hat = m.mul_scalar(1.0 / bias1);
            let v_hat = v.mul_scalar(1.0 / bias2);
            let value = param.value_mut();
            for ((w, &mh), &vh) in value
                .data_mut()
                .iter_mut()
                .zip(m_hat.data())
                .zip(v_hat.data())
            {
                *w -= lr * mh / (vh.sqrt() + eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falvolt_tensor::Tensor;

    fn param_with_grad(value: f32, grad: f32) -> Param {
        let mut p = Param::new("w", Tensor::scalar(value));
        p.grad_mut().fill(grad);
        p
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut sgd = Sgd::new(0.5, 0.0);
        let mut p = param_with_grad(1.0, 1.0);
        sgd.step(vec![&mut p]);
        assert!((p.value().data()[0] - 0.5).abs() < 1e-6);
        assert_eq!(sgd.learning_rate(), 0.5);
        sgd.set_learning_rate(0.1);
        assert_eq!(sgd.learning_rate(), 0.1);
    }

    #[test]
    fn sgd_momentum_accelerates_repeated_gradients() {
        let mut plain = Sgd::new(0.1, 0.0);
        let mut momentum = Sgd::new(0.1, 0.9);
        let mut p1 = param_with_grad(0.0, 1.0);
        let mut p2 = param_with_grad(0.0, 1.0);
        for _ in 0..5 {
            plain.step(vec![&mut p1]);
            momentum.step(vec![&mut p2]);
        }
        assert!(
            p2.value().data()[0] < p1.value().data()[0],
            "momentum should have travelled further: {} vs {}",
            p2.value().data()[0],
            p1.value().data()[0]
        );
    }

    #[test]
    fn frozen_params_are_not_updated() {
        let mut sgd = Sgd::new(0.5, 0.0);
        let mut p = param_with_grad(1.0, 1.0);
        p.set_trainable(false);
        sgd.step(vec![&mut p]);
        assert_eq!(p.value().data()[0], 1.0);

        let mut adam = Adam::new(0.5);
        adam.step(vec![&mut p]);
        assert_eq!(p.value().data()[0], 1.0);
    }

    #[test]
    fn adam_first_step_moves_by_about_lr() {
        let mut adam = Adam::new(0.01);
        let mut p = param_with_grad(1.0, 5.0);
        adam.step(vec![&mut p]);
        // After bias correction the first Adam step has magnitude ~lr.
        assert!((p.value().data()[0] - (1.0 - 0.01)).abs() < 1e-4);
        assert_eq!(adam.learning_rate(), 0.01);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimise f(w) = (w - 3)^2 by feeding grad = 2 (w - 3).
        let mut adam = Adam::with_betas(0.1, 0.9, 0.999, 1e-8);
        let mut p = Param::new("w", Tensor::scalar(-2.0));
        for _ in 0..300 {
            let w = p.value().data()[0];
            p.zero_grad();
            p.grad_mut().fill(2.0 * (w - 3.0));
            adam.step(vec![&mut p]);
        }
        assert!((p.value().data()[0] - 3.0).abs() < 0.05);
    }

    #[test]
    fn adam_learning_rate_setter() {
        let mut adam = Adam::new(0.01);
        adam.set_learning_rate(0.2);
        assert_eq!(adam.learning_rate(), 0.2);
    }
}
